package transport

import (
	"context"

	"agentloc/internal/metrics"
)

// Metric names exposed by the transport layer.
const (
	metricSent     = "agentloc_transport_envelopes_sent_total"
	metricReceived = "agentloc_transport_envelopes_received_total"
	metricSendErrs = "agentloc_transport_send_errors_total"
	metricDropped  = "agentloc_transport_network_dropped_total"
	metricRPCLat   = "agentloc_transport_rpc_latency_seconds"
	metricRPCTmo   = "agentloc_transport_rpc_timeouts_total"
	metricConnErrs = "agentloc_transport_conn_errors_total"
)

// describeTransportMetrics registers HELP text once per registry; Describe
// is idempotent so repeated calls are harmless.
func describeTransportMetrics(r *metrics.Registry) {
	if r == nil {
		return
	}
	r.Describe(metricSent, "Envelopes accepted for sending, by request kind.")
	r.Describe(metricReceived, "Envelopes delivered to this endpoint, by request kind.")
	r.Describe(metricSendErrs, "Envelope sends rejected by the link, by request kind.")
	r.Describe(metricDropped, "Envelopes dropped inside the simulated network, by reason.")
	r.Describe(metricRPCLat, "Round-trip latency of completed RPC calls, by request kind.")
	r.Describe(metricRPCTmo, "RPC calls abandoned on context expiry, by request kind.")
	r.Describe(metricConnErrs, "TCP connection-level failures, by reason (dial, write, decode, torn, reset).")
}

// instrumentedLink wraps a Link, counting envelopes as they cross it.
type instrumentedLink struct {
	inner Link
	out   poster // inner's post, or its Send behind one
	reg   *metrics.Registry
}

var (
	_ Link             = (*instrumentedLink)(nil)
	_ ContextSender    = (*instrumentedLink)(nil)
	_ poster           = (*instrumentedLink)(nil)
	_ endpointListener = (*instrumentedLink)(nil)
)

// Instrument wraps link so that every envelope sent or received through it
// increments agentloc_transport_envelopes_{sent,received}_total{kind} (and
// send failures increment agentloc_transport_send_errors_total{kind}) in
// reg. An envelope counts as sent when the link accepts it — on a TCP link,
// when it is queued for its connection's writer, which may then carry many
// envelopes in one write. A nil registry returns the link unwrapped;
// instrumenting twice with the same registry is wasteful but safe.
func Instrument(link Link, reg *metrics.Registry) Link {
	if reg == nil {
		return link
	}
	describeTransportMetrics(reg)
	return &instrumentedLink{inner: link, out: asPoster(link), reg: reg}
}

// Listen implements Link, interposing a received-envelope counter before
// the bound handler.
func (l *instrumentedLink) Listen(addr Addr, h Handler) error {
	wrapped := h
	if h != nil {
		wrapped = func(env Envelope) {
			l.reg.Counter(metricReceived, "kind", env.Kind).Inc()
			h(env)
		}
	}
	return l.inner.Listen(addr, wrapped)
}

// countedEndpoint is an endpoint behind the received-envelope counter.
type countedEndpoint struct {
	endpoint
	reg *metrics.Registry
}

func (c countedEndpoint) deliver(env Envelope, borrowed bool) {
	c.reg.Counter(metricReceived, "kind", env.Kind).Inc()
	c.endpoint.deliver(env, borrowed)
}

// listenEndpoint implements endpointListener, so a Peer on an instrumented
// TCP link is still handed its envelopes on the read loop.
func (l *instrumentedLink) listenEndpoint(addr Addr, ep endpoint) error {
	ep = countedEndpoint{ep, l.reg}
	if el, ok := l.inner.(endpointListener); ok {
		return el.listenEndpoint(addr, ep)
	}
	return l.inner.Listen(addr, func(env Envelope) { ep.deliver(env, false) })
}

// Unlisten implements Link.
func (l *instrumentedLink) Unlisten(addr Addr) { l.inner.Unlisten(addr) }

// Send implements Link.
func (l *instrumentedLink) Send(env Envelope) error {
	return l.note(env, l.inner.Send(env))
}

// SendCtx implements ContextSender, forwarding to the inner link's SendCtx
// when it has one so wrapping a TCP link does not cost it ctx-aware sends.
func (l *instrumentedLink) SendCtx(ctx context.Context, env Envelope) error {
	return l.note(env, SendWithContext(ctx, l.inner, env))
}

// post implements poster.
func (l *instrumentedLink) post(ctx context.Context, env Envelope, body any, w sendWaiter) error {
	return l.note(env, l.out.post(ctx, env, body, w))
}

// note accounts one send outcome.
func (l *instrumentedLink) note(env Envelope, err error) error {
	if err != nil {
		l.reg.Counter(metricSendErrs, "kind", env.Kind).Inc()
		return err
	}
	l.reg.Counter(metricSent, "kind", env.Kind).Inc()
	return nil
}

// Close implements Link.
func (l *instrumentedLink) Close() error { return l.inner.Close() }
