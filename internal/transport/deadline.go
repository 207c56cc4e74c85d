package transport

import (
	"context"
	"sync"
	"time"
)

// DeadlineContext bounds one call without paying for context.WithTimeout: it
// reports the deadline at once, but its Done channel — a channel, a timer and
// a hook on the parent — is built only when a consumer asks for it. A waiter
// that owns a reusable timer need not ask (WaitChans): a call waiting for its
// reply and a request parked in a mailbox arm their own timer from the
// deadline and select on the parent's Done. Everything else that selects on
// Done (a service-time charge, a dial) gets a channel that closes at the
// deadline or with the parent, as any context's would.
//
// Release it when the call is over, as one would call a CancelFunc: a Done
// channel that was built is closed and gives its timer back. A context whose
// Done was never built is pooled at Release, so a bounded call costs no
// allocation; it must not be used after Release. One whose Done was built is
// left to the collector — its timer or parent hook may still fire — and stays
// usable, reporting context.Canceled.
type DeadlineContext struct {
	context.Context // the parent
	deadline        time.Time

	mu       sync.Mutex
	done     chan struct{} // nil until Done is first called
	closed   bool          // done is closed
	released bool
	timer    *time.Timer
	unparent func() bool // unhooks expire from the parent; nil when the parent never ends
}

// WithDeadline returns a context that expires at d, or at the parent's
// deadline when that is earlier, and is cancelled with the parent.
func WithDeadline(parent context.Context, d time.Time) *DeadlineContext {
	if pd, ok := parent.Deadline(); ok && pd.Before(d) {
		d = pd
	}
	c := deadlinePool.Get().(*DeadlineContext)
	c.Context, c.deadline = parent, d
	return c
}

var deadlinePool = sync.Pool{New: func() any { return new(DeadlineContext) }}

// Deadline implements context.Context.
func (c *DeadlineContext) Deadline() (time.Time, bool) { return c.deadline, true }

// Err implements context.Context. It reads the clock instead of waiting for
// the timer, so it may report the expiry a moment before Done closes.
func (c *DeadlineContext) Err() error {
	if err := c.Context.Err(); err != nil {
		return err
	}
	if !time.Now().Before(c.deadline) {
		return context.DeadlineExceeded
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.released {
		return context.Canceled
	}
	return nil
}

// Done implements context.Context, building the channel on first use.
func (c *DeadlineContext) Done() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.done == nil {
		c.done = make(chan struct{})
		if wait := time.Until(c.deadline); wait <= 0 || c.released {
			c.closeLocked()
		} else {
			c.timer = time.AfterFunc(wait, c.expire)
			if c.Context.Done() != nil {
				c.unparent = context.AfterFunc(c.Context, c.expire)
			}
		}
	}
	return c.done
}

// expire closes Done: the deadline passed or the parent was cancelled.
func (c *DeadlineContext) expire() {
	c.mu.Lock()
	c.closeLocked()
	c.mu.Unlock()
}

func (c *DeadlineContext) closeLocked() {
	if !c.closed {
		c.closed = true
		close(c.done)
	}
}

// Release ends the context the way a CancelFunc would. A context that never
// built Done goes back to the pool: nothing but its caller can hold it, since
// whatever outlives a call — a timer, a parent hook, a derived context — asks
// for Done first. Otherwise Err reports context.Canceled from here on (unless
// the deadline or the parent got there first), and Done is closed and its
// timer and parent hook stopped.
func (c *DeadlineContext) Release() {
	c.mu.Lock()
	if c.done == nil {
		c.Context = nil
		c.mu.Unlock()
		deadlinePool.Put(c)
		return
	}
	defer c.mu.Unlock()
	c.released = true
	c.closeLocked()
	if c.timer != nil {
		c.timer.Stop()
	}
	if c.unparent != nil {
		c.unparent()
	}
}

// WaitChans returns what a wait bounded by ctx selects on besides what it
// waits for: ctx's Done and, for a DeadlineContext, the parent's Done instead
// and the deadline armed on t — so the context's own Done channel is never
// built. t must not be running; when expired is not nil the caller stops t
// once the wait is over.
func WaitChans(ctx context.Context, t *time.Timer) (done <-chan struct{}, expired <-chan time.Time) {
	dc, ok := ctx.(*DeadlineContext)
	if !ok {
		return ctx.Done(), nil
	}
	t.Reset(time.Until(dc.deadline))
	return dc.Context.Done(), t.C
}
