package capindex

// Tags returns the number of distinct capability tags indexed.
func (x *Index) Tags() int {
	x.mu.RLock()
	n := len(x.byCap)
	x.mu.RUnlock()
	return n
}
