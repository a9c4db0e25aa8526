package gateway

import "repro/internal/metrics"

// gatewayMetrics is the gateway's own registry: a gateway process fronts
// many members, so its numbers (retries, hedges, ejections, routing
// failures) are fleet-level signals distinct from any one member's.
type gatewayMetrics struct {
	reg *metrics.Registry

	requests      *metrics.CounterVec   // route, code
	latency       *metrics.HistogramVec // route
	retries       *metrics.Counter
	hedges        *metrics.Counter
	unrouted      *metrics.Counter
	transitions   *metrics.CounterVec // to = admitted | ejected
	sseReconnects *metrics.Counter
}

func newGatewayMetrics() *gatewayMetrics {
	reg := metrics.NewRegistry()
	return &gatewayMetrics{
		reg: reg,
		requests: reg.NewCounterVec("xbar_gateway_requests_total",
			"Gateway HTTP requests by route and status code.", "route", "code"),
		latency: reg.NewHistogramVec("xbar_gateway_request_seconds",
			"Gateway HTTP request latency by route.", nil, "route"),
		retries: reg.NewCounter("xbar_gateway_retries_total",
			"Proxied attempts retried after a member failure or timeout."),
		hedges: reg.NewCounter("xbar_gateway_hedges_total",
			"Hedged submissions raced against a slow primary member."),
		unrouted: reg.NewCounter("xbar_gateway_unrouted_total",
			"Jobs refused because their shard had no healthy member."),
		transitions: reg.NewCounterVec("xbar_gateway_member_transitions_total",
			"Health-checker ring changes (to = admitted | ejected).", "to"),
		sseReconnects: reg.NewCounter("xbar_gateway_sse_reconnects_total",
			"Upstream SSE connections re-established after a member drop."),
	}
}

// registerGauges wires the pull-style gauges that read gateway state at
// scrape time; split from construction because they capture the Gateway.
func (m *gatewayMetrics) registerGauges(g *Gateway) {
	m.reg.NewGaugeFunc("xbar_gateway_ring_members",
		"Members configured on the consistent-hash ring.",
		func() float64 { return float64(len(g.members)) })
	m.reg.NewGaugeFunc("xbar_gateway_healthy_members",
		"Members currently passing health checks.",
		func() float64 { return float64(g.health.HealthyCount()) })
}
