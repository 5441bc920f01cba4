package host

import (
	"adaptivetoken/internal/protocol"
	"adaptivetoken/internal/sim"
	"adaptivetoken/internal/transport"
)

// EndpointNetwork is the live Network: it ships messages over a
// transport.Endpoint. Fault-injected extra delay is realized by holding the
// send back on the host clock — the transport itself stays fault-free and
// only models topology (links, partitions).
type EndpointNetwork struct {
	ep    transport.Endpoint
	clock Clock
}

// NewEndpointNetwork wraps ep; clock schedules delayed (jittered) sends.
func NewEndpointNetwork(ep transport.Endpoint, clock Clock) *EndpointNetwork {
	return &EndpointNetwork{ep: ep, clock: clock}
}

// Deliver implements Network. The envelope needs a message of its own —
// *m is only valid for the call, and a delayed send outlives it — so this
// is where the live path makes its one copy.
func (n *EndpointNetwork) Deliver(m *protocol.Message, extra sim.Time) {
	mc := *m
	if extra <= 0 {
		n.send(&mc)
		return
	}
	n.clock.AfterFunc(extra, func() { n.send(&mc) })
}

func (n *EndpointNetwork) send(m *protocol.Message) {
	// Unreachable peer: protocol-level timeouts (research, recovery)
	// repair the damage; nothing to do here.
	_ = n.ep.Send(transport.Envelope{To: m.To, Proto: m})
}
