package transport

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// Tests for Reap, the call group: calls posted under one deadline, each handed
// back as its reply lands.

// gatedPair is a peer pair whose server holds each "gate-<k>" request until
// gate k is opened and every "stall" request until the test ends, and answers
// anything else at once, echoing the kind.
func gatedPair(t *testing.T, gates int) (*Peer, []chan struct{}) {
	t.Helper()
	open := make([]chan struct{}, gates)
	for k := range open {
		open[k] = make(chan struct{})
	}
	block := make(chan struct{})
	client, _, _ := newPeerPair(t, func(_ context.Context, _ Addr, kind string, _ []byte) (any, error) {
		var k int
		switch _, err := fmt.Sscanf(kind, "gate-%d", &k); {
		case err == nil:
			<-open[k]
		case kind == "stall":
			<-block
		}
		return echoResp{Text: kind}, nil
	})
	// Registered after newPeerPair's, so it runs first: the server's Close
	// waits for its handlers.
	t.Cleanup(func() { close(block) })
	return client, open
}

// Replies come back in the order they land, not the order the calls were
// posted: each landing opens the next gate of a chosen order.
func TestReapLandsInLandingOrder(t *testing.T) {
	client, open := gatedPair(t, 4)
	order := []int{2, 0, 3, 1}
	dc := WithDeadline(context.Background(), time.Now().Add(10*time.Second))
	defer dc.Release()
	resps := make([]echoResp, 4)
	calls := make([]Pending, 4)
	for k := range calls {
		calls[k] = client.Go(dc, "server", "", fmt.Sprintf("gate-%d", k), nil, &resps[k])
	}
	close(open[order[0]])
	var landed []int
	Reap(dc, calls, func(i int, err error) {
		if err != nil || resps[i].Text != fmt.Sprintf("gate-%d", i) {
			t.Errorf("call %d = %q, %v; want its reply", i, resps[i].Text, err)
		}
		landed = append(landed, i)
		if len(landed) < len(order) {
			close(open[order[len(landed)]])
		}
	})
	if fmt.Sprint(landed) != fmt.Sprint(order) {
		t.Errorf("calls landed in order %v, want %v", landed, order)
	}
}

// A Settled call comes back before any reply: here the only reply there will
// be is sent once the settled call has landed.
func TestReapSettledLandsAtOnce(t *testing.T) {
	client, open := gatedPair(t, 1)
	dc := WithDeadline(context.Background(), time.Now().Add(10*time.Second))
	defer dc.Release()
	settled := errors.New("answered without the link")
	var resp echoResp
	calls := []Pending{client.Go(dc, "server", "", "gate-0", nil, &resp), Settled(settled)}
	var landed []int
	Reap(dc, calls, func(i int, err error) {
		landed = append(landed, i)
		switch i {
		case 1:
			if !errors.Is(err, settled) {
				t.Errorf("settled call = %v, want its outcome", err)
			}
			close(open[0])
		case 0:
			if err != nil || resp.Text != "gate-0" {
				t.Errorf("gated call = %q, %v; want its reply", resp.Text, err)
			}
		}
	})
	if fmt.Sprint(landed) != "[1 0]" {
		t.Errorf("calls landed in order %v, want [1 0]", landed)
	}
}

// A stalled call delays none of the others: they land while it is out, and it
// ends at the shared deadline.
func TestReapStalledCallCostsOneDeadline(t *testing.T) {
	client, _ := gatedPair(t, 0)
	const deadline = 500 * time.Millisecond
	start := time.Now()
	dc := WithDeadline(context.Background(), start.Add(deadline))
	defer dc.Release()
	kinds := []string{"stall", "a", "stall", "b", "c"}
	resps := make([]echoResp, len(kinds))
	calls := make([]Pending, len(kinds))
	for i, kind := range kinds {
		calls[i] = client.Go(dc, "server", "", kind, nil, &resps[i])
	}
	var landed []string
	Reap(dc, calls, func(i int, err error) {
		landed = append(landed, kinds[i])
		took := time.Since(start)
		if kinds[i] == "stall" {
			if !errors.Is(err, context.DeadlineExceeded) || took < deadline {
				t.Errorf("stalled call ended after %v with %v, want the deadline at %v", took, err, deadline)
			}
			return
		}
		if err != nil || resps[i].Text != kinds[i] || took >= deadline {
			t.Errorf("call %q landed after %v with %q, %v; want its reply before the deadline", kinds[i], took, resps[i].Text, err)
		}
	})
	if got := fmt.Sprint(landed[3:]); len(landed) != len(kinds) || got != "[stall stall]" {
		t.Errorf("calls landed as %v, want the stalled two last", landed)
	}
	if took := time.Since(start); took > deadline+2*time.Second {
		t.Errorf("the group took %v, more than one %v deadline", took, deadline)
	}
}

// An answer that is in its slot before the group is reaped counts, however
// long ago the deadline passed.
func TestReapAnswerInSlotWinsOverExpiredDeadline(t *testing.T) {
	client, _ := gatedPair(t, 0)
	for round := 0; round < 20; round++ {
		dc := WithDeadline(context.Background(), time.Now().Add(10*time.Millisecond))
		var stalled, quick echoResp
		calls := []Pending{
			client.Go(dc, "server", "", "stall", nil, &stalled),
			client.Go(dc, "server", "", "quick", nil, &quick),
		}
		for client.Outstanding() > 1 {
			time.Sleep(time.Millisecond)
		}
		for dc.Err() == nil {
			time.Sleep(time.Millisecond)
		}
		errs := make([]error, len(calls))
		Reap(dc, calls, func(i int, err error) { errs[i] = err })
		dc.Release()
		if !errors.Is(errs[0], context.DeadlineExceeded) {
			t.Fatalf("stalled call = %v, want the deadline", errs[0])
		}
		if errs[1] != nil || quick.Text != "quick" {
			t.Fatalf("answered call = %q, %v; want its reply", quick.Text, errs[1])
		}
		if n := client.Outstanding(); n != 0 {
			t.Fatalf("%d calls still pending", n)
		}
	}
}

// However a group ends, it leaves no call registered at the peer.
func TestReapLeavesNothingOutstanding(t *testing.T) {
	for _, tc := range []struct {
		name  string
		kinds []string // "ghost" is posted to an address nobody listens on
		end   func(client *Peer, cancel context.CancelFunc)
		want  error // the stalled and ghost calls' error; the others answer
	}{
		{name: "all land", kinds: []string{"a", "b", "c"}},
		{name: "deadline passes", kinds: []string{"stall", "a", "stall"}, want: context.DeadlineExceeded},
		{name: "parent cancelled", kinds: []string{"stall", "a", "stall"}, want: context.Canceled,
			end: func(_ *Peer, cancel context.CancelFunc) { cancel() }},
		{name: "post fails", kinds: []string{"a", "ghost", "b"}, want: ErrUnknownAddr},
		{name: "peer closes", kinds: []string{"stall", "a", "stall"}, want: ErrClosed,
			end: func(client *Peer, _ context.CancelFunc) { client.Close() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			client, _ := gatedPair(t, 0)
			parent, cancel := context.WithCancel(context.Background())
			defer cancel()
			deadline := 10 * time.Second
			if tc.want == context.DeadlineExceeded {
				deadline = 50 * time.Millisecond
			}
			dc := WithDeadline(parent, time.Now().Add(deadline))
			defer dc.Release()
			resps := make([]echoResp, len(tc.kinds))
			calls := make([]Pending, len(tc.kinds))
			for i, kind := range tc.kinds {
				to := Addr("server")
				if kind == "ghost" {
					to = "ghost"
				}
				calls[i] = client.Go(dc, to, "", kind, nil, &resps[i])
			}
			Reap(dc, calls, func(i int, err error) {
				switch kind := tc.kinds[i]; kind {
				case "stall", "ghost":
					if !errors.Is(err, tc.want) {
						t.Errorf("call %q = %v, want %v", kind, err, tc.want)
					}
				default:
					if err != nil || resps[i].Text != kind {
						t.Errorf("call %q = %q, %v; want its reply", kind, resps[i].Text, err)
					}
					if tc.end != nil {
						tc.end(client, cancel)
					}
				}
			})
			if n := client.Outstanding(); n != 0 {
				t.Errorf("%d calls still registered after the group ended", n)
			}
		})
	}
}
