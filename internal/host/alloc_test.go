package host

import (
	"testing"

	"adaptivetoken/internal/protocol"
	"adaptivetoken/internal/sim"
	"adaptivetoken/internal/transport"
)

// stubClock is a manual clock with the typed-timer fast path; armed timers
// are discarded (the alloc test drives the host by hand).
type stubClock struct{ now sim.Time }

func (c *stubClock) Now() sim.Time                                      { return c.now }
func (c *stubClock) AfterFunc(d sim.Time, fn func())                    {}
func (c *stubClock) AfterTimer(d sim.Time, node int, tm protocol.Timer) {}

// captureNet records the last dispatched message so the test can feed the
// token around the ring by hand.
type captureNet struct {
	last protocol.Message
	ok   bool
}

func (n *captureNet) Deliver(m *protocol.Message, extra sim.Time) {
	n.last, n.ok = *m, true
}

// TestArriveFastPathZeroAlloc pins the observer-off contract the telemetry
// subsystem must not regress: with a nil Observer (no tracer attached),
// steady-state token circulation through Host.Arrive allocates nothing.
// The message arrives from where real callers keep it — the engine's
// delivery slot, or a live node's decoded envelope — and a deliver gate is
// installed, as the simulation driver installs one: the pointer passed to
// the gate's func value must not force a per-hop copy onto the heap.
func TestArriveFastPathZeroAlloc(t *testing.T) {
	const n = 4
	cfg := protocol.Config{Variant: protocol.RingToken, N: n}
	nodes := make([]*protocol.Node, n)
	for i := range nodes {
		nd, err := protocol.New(i, cfg)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = nd
	}
	clk := &stubClock{}
	net := &captureNet{}
	gated := 0
	h, err := New(Config{
		Clock:   clk,
		Network: net,
		Machine: func(id int) *protocol.Node { return nodes[id] },
		Hooks: Hooks{DeliverGate: func(m *protocol.Message) bool {
			gated++
			return m.To >= 0
		}},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Bootstrap node 0 and let the scratch buffer reach steady capacity.
	h.Apply(0, nodes[0].GiveToken(0))
	if !net.ok {
		t.Fatal("bootstrap produced no token pass")
	}
	// env is the decoded envelope a live node hands to Arrive; its
	// message lives on the heap, as the engine's delivery slot does.
	env := transport.Envelope{Proto: new(protocol.Message)}
	hop := func() {
		*env.Proto = net.last
		net.ok = false
		clk.now++
		h.Arrive(env.Proto)
		if !net.ok {
			t.Fatal("token circulation stalled")
		}
	}
	for i := 0; i < 2*n; i++ {
		hop()
	}

	allocs := testing.AllocsPerRun(200, func() { hop() })
	if allocs != 0 {
		t.Fatalf("observer-off Arrive fast path allocates %.1f/op, want 0", allocs)
	}
	if gated == 0 {
		t.Fatal("deliver gate never ran")
	}
}
