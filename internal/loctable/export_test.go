package loctable

// InternedNodes reports how many distinct node ids the table currently
// interns: it must track the live node set, not every node the table has
// ever seen.
func (t *Table) InternedNodes() int {
	t.nodeMu.RLock()
	n := len(t.nodes)
	t.nodeMu.RUnlock()
	return n
}
