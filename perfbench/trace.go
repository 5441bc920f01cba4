package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"adaptivetoken/internal/host"
	"adaptivetoken/internal/protocol"
)

// span is one timed call at a layer boundary. Spans of one session (a live
// acquire/release session, a simulation job, a shard run) share its trace
// id; parent is the enclosing span's id, 0 for a root.
type span struct {
	ID     int64  `json:"id"`
	Trace  int64  `json:"trace"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps a run's spans in memory; write dumps them as JSON when the
// run ends. Times are nanoseconds since the log was created. Safe for
// concurrent use.
type spanLog struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{base: time.Now()} }

// at converts a wall instant to the log's clock.
func (l *spanLog) at(t time.Time) int64 { return int64(t.Sub(l.base)) }

// add records a span over [start, end), in the log's clock, and returns
// its id.
func (l *spanLog) add(trace, parent int64, name string, start, end int64) int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	id := int64(len(l.spans)) + 1
	l.spans = append(l.spans, span{ID: id, Trace: trace, Parent: parent, Name: name, Start: start, End: end})
	return id
}

func (l *spanLog) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.spans)
}

func (l *spanLog) write(path string) error {
	l.mu.Lock()
	b, err := json.Marshal(l.spans)
	l.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// timed runs fn and records it as a span; it returns fn's duration.
func (l *spanLog) timed(trace, parent int64, name string, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	if l != nil {
		l.add(trace, parent, name, l.at(start), l.at(end))
	}
	return end.Sub(start)
}

// numKinds bounds host.StepKind values (StepView is the largest).
const numKinds = int(host.StepView) + 1

// stepCounts counts a run's steps by kind and its search forwards: search
// messages sent by a node other than the requester, the hops Lemma 6
// bounds by ⌈log₂ n⌉.
type stepCounts struct {
	kinds     [numKinds]int64
	searchFwd int64
}

func (c *stepCounts) count(s host.Step) {
	if k := int(s.Kind); k >= 0 && k < numKinds {
		c.kinds[k]++
	}
	for i := range s.Effects.Msgs {
		if m := &s.Effects.Msgs[i]; m.Kind == protocol.MsgSearch && m.From != m.Requester {
			c.searchFwd++
		}
	}
}

func (c *stepCounts) total() int64 {
	var t int64
	for _, v := range c.kinds {
		t += v
	}
	return t
}

func (c *stepCounts) addAll(o *stepCounts) {
	for i, v := range o.kinds {
		c.kinds[i] += v
	}
	c.searchFwd += o.searchFwd
}

// simCounter is the observer of one simulated ring. A simulated run is
// single-goroutine, so it needs no lock.
type simCounter struct{ stepCounts }

func (c *simCounter) OnStep(s host.Step)      { c.count(s) }
func (c *simCounter) OnFault(host.FaultEvent) {}

// hopKey identifies one message in flight, so its delivery step can be
// matched to the step that sent it.
type hopKey struct {
	kind                protocol.MsgKind
	from, to, requester int
	round, reqSeq       uint64
	hops                int
	epoch               uint64
}

func keyOf(m *protocol.Message) hopKey {
	return hopKey{m.Kind, m.From, m.To, m.Requester, m.Round, m.ReqSeq, m.Hops, m.Epoch}
}

// liveObserver is attached to every node of a live ring. Each LiveNode
// wraps it in its own SyncObserver, so nodes call it concurrently; it
// takes its own lock. It timestamps request and grant steps per node (to
// split each session's acquire by layer) and matches every message's
// delivery to its send (the transport hop).
type liveObserver struct {
	base time.Time

	mu       sync.Mutex
	counts   stepCounts
	requests [][]int64 // per node: StepRequest times, ns since base
	grants   [][]int64 // per node: times of steps with Effects.Granted
	inFlight map[hopKey][]int64
	hops     []float64 // send → deliver, ns
}

func newLiveObserver(nodes int, base time.Time) *liveObserver {
	return &liveObserver{
		base:     base,
		requests: make([][]int64, nodes),
		grants:   make([][]int64, nodes),
		inFlight: map[hopKey][]int64{},
	}
}

// OnStep implements host.Observer. The time is read before the lock, so
// waiting for it is not charged to the step.
func (o *liveObserver) OnStep(s host.Step) {
	now := int64(time.Since(o.base))
	o.mu.Lock()
	defer o.mu.Unlock()
	o.counts.count(s)
	if s.Kind == host.StepRequest {
		o.requests[s.Node] = append(o.requests[s.Node], now)
	}
	if s.Effects.Granted {
		o.grants[s.Node] = append(o.grants[s.Node], now)
	}
	if s.Kind == host.StepDeliver && s.Msg != nil {
		k := keyOf(s.Msg)
		if q := o.inFlight[k]; len(q) > 0 {
			o.hops = append(o.hops, float64(now-q[0]))
			if len(q) == 1 {
				delete(o.inFlight, k)
			} else {
				o.inFlight[k] = q[1:]
			}
		}
	}
	for i := range s.Effects.Msgs {
		k := keyOf(&s.Effects.Msgs[i])
		o.inFlight[k] = append(o.inFlight[k], now)
	}
}

// OnFault implements host.Observer.
func (o *liveObserver) OnFault(host.FaultEvent) {}

// reset forgets everything observed so far: the set-up's warm-up traffic
// is not part of the load window.
func (o *liveObserver) reset() {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.counts = stepCounts{}
	for i := range o.requests {
		o.requests[i] = o.requests[i][:0]
		o.grants[i] = o.grants[i][:0]
	}
	o.hops = o.hops[:0]
}

// lastAtOrBefore returns the latest of the sorted times that is ≤ t, or -1.
func lastAtOrBefore(times []int64, t int64) int64 {
	i := sort.Search(len(times), func(i int) bool { return times[i] > t })
	if i == 0 {
		return -1
	}
	return times[i-1]
}
