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
	r.Describe(metricConnErrs, "TCP connection-level failures, by reason (dial, write, decode, torn, reset, timeout).")
}

// instrumentedLink wraps a Link, counting envelopes as they cross it.
type instrumentedLink struct {
	inner Link
	reg   *metrics.Registry
}

var _ Link = (*instrumentedLink)(nil)

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
	return &instrumentedLink{inner: link, reg: reg}
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

// listen implements Link, interposing the received-envelope counter before
// the endpoint.
func (l *instrumentedLink) listen(addr Addr, ep endpoint) error {
	return l.inner.listen(addr, countedEndpoint{ep, l.reg})
}

// Unlisten implements Link.
func (l *instrumentedLink) Unlisten(addr Addr) { l.inner.Unlisten(addr) }

// post implements Link, counting the envelope as sent when the inner link
// accepts it and as a send error when it does not.
func (l *instrumentedLink) post(ctx context.Context, env Envelope, body any, w sendWaiter) error {
	if err := l.inner.post(ctx, env, body, w); err != nil {
		l.reg.Counter(metricSendErrs, "kind", env.Kind).Inc()
		return err
	}
	l.reg.Counter(metricSent, "kind", env.Kind).Inc()
	return nil
}

// Close implements Link.
func (l *instrumentedLink) Close() error { return l.inner.Close() }
