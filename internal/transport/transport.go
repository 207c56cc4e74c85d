// Package transport is the network substrate beneath the mobile-agent
// platform. It carries one kind of traffic, request/response messages, in two
// layers:
//
//   - Peer, the only way onto and off a link: a request/response (RPC)
//     endpoint with correlation ids, deadlines and remote error propagation.
//     Calls post envelopes to the link; the link delivers inbound envelopes to
//     the Peer bound at their address. A call to the Peer's own address is
//     handed to its handler without the link.
//   - Link, the envelope carrier beneath it, with two implementations:
//     Network, an in-process simulated LAN with configurable latency, jitter,
//     message loss and partitions, which experiments and tests run on; and
//     TCP, framed envelopes over real TCP connections, for multi-process
//     deployment of the same binaries. Instrument wraps either in envelope
//     counters.
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
	// Agent names the agent at To a request is addressed to; it is empty
	// for a request to the endpoint itself and on every reply.
	Agent string
	// Kind names the request type (e.g. "loc.locate", "platform.ping"); a
	// reply repeats its request's.
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

	// via is the TCP connection a request was read from, and on its reply
	// the connection the reply goes back on; nil for anything that did not
	// come off a TCP connection. It is not on the wire.
	via *tcpConn
}

// Link is an asynchronous envelope carrier between named endpoints: what a
// Peer sends through and is delivered to. Its send and bind methods are
// unexported, so its implementations are this package's own — Network, TCP
// and Instrument's counting wrapper — and a Peer drives every one of them the
// same way.
type Link interface {
	// post encodes body (when non-nil; otherwise env.Payload is taken as
	// already encoded) as the envelope's payload, queues the envelope and
	// returns: it may wait for a dial, within ctx, but never for a write. A
	// reply waits for neither: it goes back the way its request came (on TCP,
	// the connection the request was read from), or nowhere. Neither body nor
	// env.Payload is referenced once post has returned.
	//
	// An error from post means nothing was queued: the send cannot happen
	// (unknown address, refused dial, closed link, unencodable body) and the
	// caller hears so at once. After a nil error the envelope's fate is told
	// to w, which may be nil, exactly once. Delivery is not guaranteed: the
	// simulated network can drop, and TCP peers can fail.
	post(ctx context.Context, env Envelope, body any, w sendWaiter) error
	// listen binds an address to an endpoint. Binding an already-bound
	// address fails.
	listen(addr Addr, ep endpoint) error
	// Unlisten releases an address binding. Unknown addresses are ignored.
	Unlisten(addr Addr)
	// Close releases the link. In-flight envelopes may be dropped.
	Close() error
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

// endpoint is the receive side of a Peer, as a link sees it.
type endpoint interface {
	// deliver hands over an inbound envelope on the connection's read
	// loop. With borrowed set, env.Payload aliases the read buffer and is
	// valid only until deliver returns.
	deliver(env Envelope, borrowed bool)
	// connLost reports that a connection died, so calls written to it
	// need not wait out their deadlines for replies that cannot come.
	connLost(c *tcpConn, err error)
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
