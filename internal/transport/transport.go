// Package transport is the network substrate beneath the mobile-agent
// platform. It offers one abstraction — Link, an asynchronous envelope
// carrier between named endpoints — with two implementations:
//
//   - Network: an in-process simulated LAN with configurable latency,
//     jitter, message loss and partitions. Experiments and tests run on it.
//   - TCP: framed envelopes over real TCP connections, demonstrating
//     multi-process deployment of the same binaries.
//
// Package transport also provides Peer, a request/response (RPC) layer over
// any Link, with correlation ids, deadlines and remote error propagation.
package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"

	"agentloc/internal/trace"
)

// Addr names an endpoint. In-memory networks use free-form names ("node-3");
// the TCP transport resolves Addrs to host:port pairs through a directory.
type Addr string

// Envelope is the unit of transfer between endpoints.
type Envelope struct {
	// From and To identify the sending and receiving endpoints.
	From, To Addr
	// Kind names the request type (e.g. "locate", "agent-transfer").
	Kind string
	// Corr correlates a reply with its request.
	Corr uint64
	// Reply marks response envelopes.
	Reply bool
	// ErrMsg carries a remote error on a reply.
	ErrMsg string
	// Trace is the causal trace context riding the envelope across the
	// wire: both Link implementations carry it verbatim, so a receiver can
	// parent its spans under the sender's. The zero value means untraced.
	Trace trace.SpanContext
	// Payload is the encoded message body (see Encode).
	Payload []byte
}

// Handler consumes inbound envelopes for an endpoint. Handlers may be
// invoked concurrently and must not block for long.
type Handler func(Envelope)

// Link is an asynchronous envelope carrier.
type Link interface {
	// Listen binds an address to a handler. Binding an already-bound
	// address fails.
	Listen(addr Addr, h Handler) error
	// Unlisten releases an address binding. Unknown addresses are ignored.
	Unlisten(addr Addr)
	// Send queues an envelope for delivery. Send returns once the envelope
	// is accepted; delivery is asynchronous and not guaranteed (the
	// simulated network can drop, and TCP peers can fail).
	Send(env Envelope) error
	// Close releases the link. In-flight envelopes may be dropped.
	Close() error
}

// ContextSender is optionally implemented by Links whose Send can block for
// real time — dialing, redial backoff, write deadlines. SendCtx gives the
// wait up when ctx expires instead of seeing it through.
type ContextSender interface {
	SendCtx(ctx context.Context, env Envelope) error
}

// SendWithContext sends through SendCtx when the link offers it and falls
// back to plain Send otherwise (in-memory links never block long enough to
// matter).
func SendWithContext(ctx context.Context, l Link, env Envelope) error {
	if cs, ok := l.(ContextSender); ok {
		return cs.SendCtx(ctx, env)
	}
	return l.Send(env)
}

// poster is the send side a Peer drives. post encodes body (when non-nil;
// otherwise env.Payload is taken as already encoded) as the envelope's
// payload, queues the envelope and returns: it
// may wait for a dial, within ctx, but never for a write — and for a reply not
// even for a dial. Neither body nor env.Payload is referenced once post has
// returned.
//
// An error from post means nothing was queued: the send cannot happen
// (unknown address, refused dial, closed link, unencodable body) and the
// caller hears so at once. After a nil error the envelope's fate is told to w,
// which may be nil, exactly once.
type poster interface {
	post(ctx context.Context, env Envelope, body any, w sendWaiter) error
}

// sendWaiter hears what became of a posted envelope: the error that kept it
// off the wire, or nil once it is written — with the connection it was written
// to, on links that have connections, which is the one endpoint.connLost will
// name should it die. sendDone runs on a goroutine of the link and must not
// block.
type sendWaiter interface {
	sendDone(corr uint64, on *tcpConn, err error)
}

// encodeError marks a post that failed because the body could not be encoded.
type encodeError struct{ err error }

func (e *encodeError) Error() string { return "encode: " + e.err.Error() }
func (e *encodeError) Unwrap() error { return e.err }

// ownPayload returns the payload a link may keep past post: body encoded, or,
// with no body, a copy of the already encoded payload.
func ownPayload(payload []byte, body any) ([]byte, error) {
	if body == nil {
		return bytes.Clone(payload), nil
	}
	encoded, err := Encode(body)
	if err != nil {
		return nil, &encodeError{err}
	}
	return encoded, nil
}

// endpoint is the receive side of a Peer, as a link that owns connections
// sees it (links that do not simply call a Handler).
type endpoint interface {
	// deliver hands over an inbound envelope on the connection's read
	// loop. With borrowed set, env.Payload aliases the read buffer and is
	// valid only until deliver returns.
	deliver(env Envelope, borrowed bool)
	// connLost reports that a connection died, so calls written to it
	// need not wait out their deadlines for replies that cannot come.
	connLost(c *tcpConn, err error)
}

// endpointListener is implemented by links that deliver to endpoints.
type endpointListener interface {
	listenEndpoint(addr Addr, ep endpoint) error
}

// Common transport errors.
var (
	// ErrClosed is returned by operations on a closed link.
	ErrClosed = errors.New("transport: link closed")
	// ErrUnknownAddr is returned when a destination cannot be resolved.
	ErrUnknownAddr = errors.New("transport: unknown address")
	// ErrAddrInUse is returned when binding an already-bound address.
	ErrAddrInUse = errors.New("transport: address already bound")
)

// RemoteError is the error type returned by Peer.Call when the remote
// handler failed; Msg is the remote error text.
type RemoteError struct {
	Kind string
	To   Addr
	Msg  string
}

// Error implements the error interface.
func (e *RemoteError) Error() string {
	return fmt.Sprintf("remote %s at %s: %s", e.Kind, e.To, e.Msg)
}
