// Package trace provides a lightweight per-node event log. The platform
// offers it to hosted agents (platform.Context.Emit), and the location
// mechanism records its high-level decisions — splits, merges, state
// adoptions, takeovers, promotions — so operators and tests can reconstruct
// what the mechanism did and when, without wading through message dumps.
package trace

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// Event is one recorded occurrence.
type Event struct {
	// At is the wall-clock time of the event.
	At time.Time
	// Actor identifies who emitted it (an agent id or node name).
	Actor string
	// Kind classifies the event (e.g. "rehash.split", "iagent.adopt").
	Kind string
	// Detail is a human-readable one-liner.
	Detail string
}

// String renders the event for logs.
func (e Event) String() string {
	return fmt.Sprintf("%s %-22s %-14s %s", e.At.Format("15:04:05.000"), e.Kind, e.Actor, e.Detail)
}

// Log is a bounded in-memory event log. The zero value is unusable; create
// one with NewLog. A nil *Log is a valid no-op sink, so callers never need
// to guard Emit calls.
type Log struct {
	mu     sync.Mutex
	events []Event
	start  int
	count  int
	total  uint64
	onEmit func(Event)
	// hookActive marks a goroutine currently draining the emit hook;
	// further events arriving meanwhile (including re-entrant Emit calls
	// from inside the hook itself) queue onto hookQueue instead of
	// recursing, and the active drainer delivers them in order.
	hookActive bool
	hookQueue  []Event
}

// NewLog returns a Log retaining the most recent capacity events.
func NewLog(capacity int) *Log {
	if capacity < 1 {
		capacity = 1
	}
	return &Log{events: make([]Event, capacity)}
}

// Emit records an event. Emit on a nil log is a no-op.
func (l *Log) Emit(actor, kind, detail string) {
	if l == nil {
		return
	}
	l.emitAt(time.Now(), actor, kind, detail)
}

func (l *Log) emitAt(at time.Time, actor, kind, detail string) {
	e := Event{At: at, Actor: actor, Kind: kind, Detail: detail}
	l.mu.Lock()
	idx := (l.start + l.count) % len(l.events)
	l.events[idx] = e
	if l.count < len(l.events) {
		l.count++
	} else {
		l.start = (l.start + 1) % len(l.events)
	}
	l.total++
	hook := l.onEmit
	if hook == nil {
		l.mu.Unlock()
		return
	}
	if l.hookActive {
		// Someone is already inside the hook — possibly this very
		// goroutine, emitting from within it. Queue instead of recursing;
		// the active drainer delivers the event.
		l.hookQueue = append(l.hookQueue, e)
		l.mu.Unlock()
		return
	}
	l.hookActive = true
	l.mu.Unlock()

	// Drain outside the lock so the hook may inspect the log (or emit —
	// which now queues rather than recurses) without deadlocking.
	for {
		hook(e)
		l.mu.Lock()
		if len(l.hookQueue) == 0 || l.onEmit == nil {
			l.hookQueue = nil
			l.hookActive = false
			l.mu.Unlock()
			return
		}
		e = l.hookQueue[0]
		l.hookQueue = l.hookQueue[1:]
		hook = l.onEmit
		l.mu.Unlock()
	}
}

// SetOnEmit registers a hook observing every subsequently emitted event —
// push-based subscription for metrics bridges and tests, replacing
// Snapshot polling. Pass nil to remove the hook. The hook is invoked
// synchronously on an emitter's goroutine and must be fast. Emitting from
// inside the hook is safe: re-entrant (and concurrent) events queue and are
// delivered in order by the goroutine already running the hook, so the hook
// never recurses. A nil log ignores the call.
func (l *Log) SetOnEmit(hook func(Event)) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.onEmit = hook
	l.mu.Unlock()
}

// Snapshot returns the retained events, oldest first. A nil log returns
// nil.
func (l *Log) Snapshot() []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, l.count)
	for i := 0; i < l.count; i++ {
		out[i] = l.events[(l.start+i)%len(l.events)]
	}
	return out
}

// Total reports how many events were ever emitted (including evicted
// ones). Zero for a nil log.
func (l *Log) Total() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// Filter returns the retained events whose Kind has the given prefix,
// oldest first.
func (l *Log) Filter(kindPrefix string) []Event {
	var out []Event
	for _, e := range l.Snapshot() {
		if strings.HasPrefix(e.Kind, kindPrefix) {
			out = append(out, e)
		}
	}
	return out
}

// Render formats the retained events one per line.
func (l *Log) Render() string {
	var b strings.Builder
	for _, e := range l.Snapshot() {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}
