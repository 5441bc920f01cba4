package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"adaptivetoken/internal/core"
	"adaptivetoken/internal/host"
	"adaptivetoken/internal/loadgen"
	"adaptivetoken/internal/protocol"
	"adaptivetoken/internal/sim"
	"adaptivetoken/internal/transport"
)

// liveParams sizes a live workload: a ring of in-process LiveNodes over
// loopback TCP under open-loop Poisson load from one pacer goroutine.
type liveParams struct {
	Nodes int
	// Rate is the ring-wide session arrival rate per second.
	Rate float64
	// Hold is the time each session spends in the critical section.
	Hold time.Duration
	// HoldIdle, when ≥ 0, replaces the shipped idle hold of the token.
	HoldIdle protocol.Time
	// MaxInFlight caps concurrent sessions; arrivals beyond it are shed.
	MaxInFlight int
	// Setups is how many rings a run starts, after one untimed warm-up,
	// to time set-up; the last one carries the load.
	Setups int
}

// pacedDefaults is the shipped ringnode configuration (1 ms unit, 5-unit
// idle hold, BinarySearch) at a moderate rate. At 200/s the median acquire
// falls where the latency distribution is thin (p45→p55 doubles), and it
// moved by a quarter between runs on a 2-CPU host; at 100/s it holds
// within a few per cent.
var pacedDefaults = liveParams{Nodes: 16, Rate: 100, Hold: time.Millisecond, HoldIdle: -1, MaxInFlight: 1024, Setups: 9}

// spinDefaults is the same ring and load with no idle hold: the token
// circulates without pause, so per-hop cost sets the acquire latency. It
// is not in BENCHMARK.json: on a 2-CPU host its p99 acquire, set by
// scheduler and GC stalls, spread by ~40% between runs.
var spinDefaults = liveParams{Nodes: 16, Rate: 100, Hold: time.Millisecond, HoldIdle: 0, MaxInFlight: 1024, Setups: 9}

// nodeSalt separates the draw of each session's node from the arrival
// draw of loadgen.Schedule, which uses the seed itself.
const nodeSalt = 0x6c8e9cf570932bd5

// warmupLimit bounds each set-up acquire.
const warmupLimit = 10 * time.Second

func (p liveParams) options(obs host.Observer) []core.Option {
	var opts []core.Option
	if p.HoldIdle >= 0 {
		opts = append(opts, core.WithHoldIdle(p.HoldIdle))
	}
	if obs != nil {
		opts = append(opts, core.WithObserver(obs))
	}
	return opts
}

// ring is one started live ring.
type ring struct{ nodes []*core.LiveNode }

// reservePorts picks n free loopback addresses by binding and releasing
// them.
func reservePorts(n int) ([]string, error) {
	addrs := make([]string, 0, n)
	var ls []net.Listener
	defer func() {
		for _, l := range ls {
			l.Close()
		}
	}()
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		ls = append(ls, l)
		addrs = append(addrs, l.Addr().String())
	}
	return addrs, nil
}

// startRing listens, dials and bootstraps a ring, then acquires and
// releases the lock once at every node. A released port taken by another
// process before the ring binds it is retried with fresh ports.
func startRing(p liveParams, obs host.Observer) (*ring, error) {
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		var addrs []string
		if addrs, err = reservePorts(p.Nodes); err != nil {
			continue
		}
		r := &ring{nodes: make([]*core.LiveNode, p.Nodes)}
		// Node 0 holds the token from the start; creating it last means
		// every peer listens before the token first moves.
		for i := p.Nodes - 1; i >= 0 && err == nil; i-- {
			r.nodes[i], err = core.NewLiveNode(i, addrs, i == 0, p.options(obs)...)
		}
		if err != nil {
			r.close()
			continue
		}
		for i, ln := range r.nodes {
			ctx, cancel := context.WithTimeout(context.Background(), warmupLimit)
			err = ln.Mutex.Lock(ctx)
			cancel()
			if err == nil {
				err = ln.Mutex.Unlock()
			}
			if err != nil {
				r.close()
				return nil, fmt.Errorf("warm-up acquire at node %d: %w", i, err)
			}
		}
		return r, nil
	}
	return nil, err
}

// close stops every node and returns the nodes that still have armed
// timers afterwards.
func (r *ring) close() []int {
	for _, ln := range r.nodes {
		if ln != nil {
			ln.Close()
		}
	}
	var leaks []int
	for i, ln := range r.nodes {
		if ln != nil && ln.Runtime.PendingTimers() != 0 {
			leaks = append(leaks, i)
		}
	}
	return leaks
}

func (r *ring) lockers() []loadgen.Locker {
	out := make([]loadgen.Locker, len(r.nodes))
	for i, ln := range r.nodes {
		out[i] = ln.Mutex
	}
	return out
}

// ringCounters are the ring's cumulative protocol and transport counters.
type ringCounters struct {
	msgs, search, token, tokenReturn int64
	transport                        transport.Stats
}

// queueDepth is the number of envelopes waiting in the ring's outbound
// transport queues.
func (r *ring) queueDepth() int64 {
	var d int64
	for _, ln := range r.nodes {
		d += ln.TransportStats().QueueDepth
	}
	return d
}

func (r *ring) counters() ringCounters {
	var c ringCounters
	for _, ln := range r.nodes {
		for kind, n := range ln.Runtime.MsgStats() {
			switch kind {
			case "dropped", "duplicated", "delayed":
				continue
			case protocol.MsgSearch.String():
				c.search += n
			case protocol.MsgToken.String():
				c.token += n
			case protocol.MsgTokenReturn.String():
				c.tokenReturn += n
			}
			c.msgs += n
		}
		t := ln.TransportStats()
		c.transport.Frames += t.Frames
		c.transport.BatchedWrites += t.BatchedWrites
		c.transport.DroppedBackpressure += t.DroppedBackpressure
		c.transport.DroppedWriteError += t.DroppedWriteError
		c.transport.Reconnects += t.Reconnects
	}
	return c
}

// heapPerNode is the post-GC live heap divided by the ring size.
func heapPerNode(nodes int) float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / float64(nodes)
}

// schedule is a load window's generated input: each session's due offset
// from the window start and the node it runs at.
type schedule struct {
	offsets []time.Duration
	nodes   []int
}

func makeSchedule(seed uint64, nodes int, rate float64, window time.Duration) (schedule, error) {
	cfg := loadgen.Config{Arrivals: loadgen.Poisson{Rate: rate}, Seed: seed, Duration: window}
	offsets, err := loadgen.Schedule(cfg, int(2*rate*window.Seconds())+100)
	if err != nil {
		return schedule{}, err
	}
	n := sort.Search(len(offsets), func(i int) bool { return offsets[i] > window })
	if n == len(offsets) {
		return schedule{}, fmt.Errorf("schedule of %d arrivals does not cover %v", n, window)
	}
	s := schedule{offsets: offsets[:n], nodes: make([]int, n)}
	rng := sim.NewRNG(seed ^ nodeSalt)
	for i := range s.nodes {
		s.nodes[i] = rng.Intn(nodes)
	}
	return s, nil
}

// session is one acquire/hold/release of the open-loop load.
type session struct {
	node int
	due  time.Time
	// call is when Lock was called, ret when it returned, unlock0 and
	// unlock1 bracket Unlock.
	call, ret, unlock0, unlock1 time.Time
	shed                        bool
	err                         error
}

// granted reports whether Lock succeeded.
func (s *session) granted() bool { return !s.shed && s.err == nil && !s.ret.IsZero() }

// acquire is the session's latency from its due instant to Lock returning.
func (s *session) acquire() time.Duration { return s.ret.Sub(s.due) }

// loadResult is one load window's outcome.
type loadResult struct {
	sessions []session
	// overlaps counts sessions that found another session inside the
	// critical section: mutual exclusion broken.
	overlaps int64
	wall     time.Duration // window start to the last session's end
	cpu      time.Duration // process CPU over the same span
}

// runLoad plays the schedule open-loop against the lockers: one pacer (the
// calling goroutine) sleeps to each due instant and starts the session,
// whatever earlier sessions are doing. Each session must acquire within
// limit of its due instant. A guard counter checks that no two sessions
// are ever inside the critical section at once.
func runLoad(lockers []loadgen.Locker, sch schedule, hold, limit time.Duration, maxInFlight int) loadResult {
	res := loadResult{sessions: make([]session, len(sch.offsets))}
	var inCS atomic.Int32
	var overlaps atomic.Int64
	sem := make(chan struct{}, maxInFlight)
	var wg sync.WaitGroup
	c0, start := cpuTime(), time.Now()
	for i := range res.sessions {
		s := &res.sessions[i]
		s.node = sch.nodes[i]
		s.due = start.Add(sch.offsets[i])
		if d := time.Until(s.due); d > 0 {
			time.Sleep(d)
		}
		select {
		case sem <- struct{}{}:
		default:
			s.shed = true
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			ctx, cancel := context.WithDeadline(context.Background(), s.due.Add(limit))
			defer cancel()
			lk := lockers[s.node]
			s.call = time.Now()
			s.err = lk.Lock(ctx)
			s.ret = time.Now()
			if s.err != nil {
				return
			}
			if inCS.Add(1) != 1 {
				overlaps.Add(1)
			}
			time.Sleep(hold)
			inCS.Add(-1)
			s.unlock0 = time.Now()
			s.err = lk.Unlock()
			s.unlock1 = time.Now()
		}()
	}
	wg.Wait()
	res.wall, res.cpu = time.Since(start), cpuTime()-c0
	res.overlaps = overlaps.Load()
	return res
}

// tally checks the window's accounting and mutual exclusion, adds its
// sessions to the outcome, and returns the sessions that met the limit.
func (lr *loadResult) tally(o *outcome, limit time.Duration) (completed int64) {
	for i := range lr.sessions {
		s := &lr.sessions[i]
		switch {
		case s.shed:
		case s.ret.IsZero():
			o.violate("session %d never returned from Lock", i)
		case errors.Is(s.err, context.DeadlineExceeded):
		case s.err != nil:
			o.violate("session %d at node %d: %v", i, s.node, s.err)
		case s.acquire() <= limit:
			completed++
		}
	}
	if lr.overlaps > 0 {
		o.violate("mutual exclusion broken: %d sessions entered an occupied critical section", lr.overlaps)
	}
	o.attempted += int64(len(lr.sessions))
	o.failed += int64(len(lr.sessions)) - completed
	return completed
}

// acquireSamples returns every session's acquire latency in ns, sorted; a
// session that was shed or failed counts at the limit.
func (lr *loadResult) acquireSamples(limit time.Duration) []float64 {
	xs := make([]float64, len(lr.sessions))
	for i := range lr.sessions {
		s := &lr.sessions[i]
		xs[i] = float64(limit)
		if s.granted() {
			xs[i] = float64(s.acquire())
		}
	}
	sort.Float64s(xs)
	return xs
}

// setQuantile reports the q-quantile of sorted samples divided by unit. A
// quantile without enough samples beyond it is not reported: it is a
// violation for an end-to-end metric and reads 0 for a per-layer one.
func setQuantile(o *outcome, name string, sorted []float64, q, unit float64, endToEnd bool, what string) {
	v, err := quantile(sorted, q)
	if err != nil {
		if endToEnd {
			o.violate("%s: %v", name, err)
		}
		o.set(name, 0, len(sorted), what)
		return
	}
	o.set(name, v/unit, len(sorted), what)
}

func runLive(cfg runConfig, p liveParams) (*outcome, error) {
	if cfg.acquireLimit <= 0 {
		return nil, fmt.Errorf("live workloads need -acquire-limit")
	}
	o := newOutcome()
	t0 := time.Now()
	sch, err := makeSchedule(cfg.seed, p.Nodes, p.Rate, cfg.seconds)
	if err != nil {
		return nil, err
	}
	take := time.Since(t0)
	// Set-up, several times after one untimed warm-up; the last ring
	// carries the load.
	var setups []float64
	var r *ring
	for i := 0; i <= p.Setups; i++ {
		if r != nil {
			if leaks := r.close(); len(leaks) > 0 {
				o.violate("set-up ring %d: nodes %v have armed timers after Close", i-1, leaks)
			}
		}
		runtime.GC()
		t0 = time.Now()
		if r, err = startRing(p, nil); err != nil {
			return nil, err
		}
		if i > 0 {
			setups = append(setups, time.Since(t0).Seconds())
		}
	}
	heap := heapPerNode(p.Nodes)
	before := r.counters()
	lr := runLoad(r.lockers(), sch, p.Hold, cfg.acquireLimit, p.MaxInFlight)
	after := r.counters()
	heap = max(heap, heapPerNode(p.Nodes))
	if leaks := r.close(); len(leaks) > 0 {
		o.violate("nodes %v have armed timers after Close", leaks)
	}
	completed := lr.tally(o, cfg.acquireLimit)
	acq := lr.acquireSamples(cfg.acquireLimit)

	o.set("setup_s", median(setups), len(setups), "setups")
	o.set("events_per_s", float64(after.msgs-before.msgs)/lr.wall.Seconds(), 0, "")
	o.set("peak_heap_bytes_per_node", heap, 0, "")
	setQuantile(o, "acquire_p50_ms", acq, 0.5, 1e6, true, "sessions")
	setQuantile(o, "acquire_p99_ms", acq, 0.99, 1e6, true, "sessions")
	o.set("goodput_per_s", float64(completed)/cfg.seconds.Seconds(), int(completed), "sessions")
	o.set("success_ratio", float64(completed)/float64(len(sch.offsets)), len(sch.offsets), "sessions")
	if !cfg.trace {
		return o, nil
	}
	return traceLive(cfg, p, o, sch, take, ratio(float64(lr.cpu)/1e6, float64(completed)))
}

// traceLive is the traced pass of a live workload: the same window on a
// ring whose nodes all report to one liveObserver. Each session's acquire
// is split at the observer's request and grant steps of its node, and each
// part is a span of the session's trace.
func traceLive(cfg runConfig, p liveParams, o *outcome, sch schedule, take time.Duration, untracedCPU float64) (*outcome, error) {
	sp := cfg.spans
	obs := newLiveObserver(p.Nodes, sp.base)
	var r *ring
	var err error
	sp.timed(0, 0, "ring.setup", func() { r, err = startRing(p, obs) })
	if err != nil {
		return nil, err
	}
	obs.reset()
	before := r.counters()

	// Sample the transport's queue depth through the window.
	stop := make(chan struct{})
	var depthMax int64
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				depthMax = max(depthMax, r.queueDepth())
			}
		}
	}()
	lr := runLoad(r.lockers(), sch, p.Hold, cfg.acquireLimit, p.MaxInFlight)
	close(stop)
	sampler.Wait()
	after := r.counters()
	if leaks := r.close(); len(leaks) > 0 {
		o.violate("traced ring: nodes %v have armed timers after Close", leaks)
	}
	traced := newOutcome()
	completed := lr.tally(traced, cfg.acquireLimit)
	o.violations = append(o.violations, traced.violations...)

	// Split each granted session's acquire at its node's request and grant
	// steps: the last of each at or before Lock returned.
	obs.mu.Lock()
	defer obs.mu.Unlock()
	var late, lateM, entry, toGrant, wakeup, acq, unlock []float64
	for i := range lr.sessions {
		s := &lr.sessions[i]
		if s.shed {
			continue
		}
		due, call, ret := sp.at(s.due), sp.at(s.call), sp.at(s.ret)
		late = append(late, float64(call-due))
		if !s.granted() {
			continue
		}
		end := sp.at(s.unlock1)
		trace := int64(i + 1)
		root := sp.add(trace, 0, "session", due, end)
		sp.add(trace, root, "loadgen.late", due, call)
		unlock = append(unlock, float64(s.unlock1.Sub(s.unlock0)))
		req := lastAtOrBefore(obs.requests[s.node], ret)
		grant := lastAtOrBefore(obs.grants[s.node], ret)
		if req >= call && grant >= req {
			sp.add(trace, root, "node.lock_entry", call, req)
			sp.add(trace, root, "node.to_grant", req, grant)
			sp.add(trace, root, "node.wakeup", grant, ret)
			acq = append(acq, float64(ret-due))
			lateM = append(lateM, float64(call-due))
			entry = append(entry, float64(req-call))
			toGrant = append(toGrant, float64(grant-req))
			wakeup = append(wakeup, float64(ret-grant))
		}
		sp.add(trace, root, "hold", ret, sp.at(s.unlock0))
		sp.add(trace, root, "node.unlock", sp.at(s.unlock0), end)
	}
	for _, xs := range [][]float64{late, entry, toGrant, wakeup, acq, unlock, obs.hops} {
		sort.Float64s(xs)
	}

	tracedCPU := ratio(float64(lr.cpu)/1e6, float64(completed))
	g := float64(completed)
	tr := after.transport
	frames := float64(tr.Frames - before.transport.Frames)
	o.metrics = map[string]value{}
	setProtocol(o, completed, after.msgs-before.msgs, after.search-before.search,
		after.token-before.token, after.tokenReturn-before.tokenReturn)
	setSteps(o, &obs.counts, completed)
	o.set("protocol.search_fwd_per_grant", ratio(float64(obs.counts.searchFwd), g), 0, "")
	o.set("protocol.search_fwd_log2n", math.Ceil(math.Log2(float64(p.Nodes))), 0, "")
	o.set("workload.take_s", take.Seconds(), 0, "")
	o.set("node.timer_steps_per_grant", ratio(float64(obs.counts.kinds[host.StepTimer]), g), 0, "")
	setQuantile(o, "loadgen.late_p99_ms", late, 0.99, 1e6, false, "sessions")
	o.set("loadgen.shed", float64(len(sch.offsets)-len(late)), 0, "")
	o.set("node.lock_entry_us", median(entry)/1e3, len(entry), "sessions")
	o.set("node.to_grant_ms", median(toGrant)/1e6, len(toGrant), "sessions")
	o.set("node.wakeup_us", median(wakeup)/1e3, len(wakeup), "sessions")
	setQuantile(o, "node.unlock_us_p50", unlock, 0.5, 1e3, false, "sessions")
	setQuantile(o, "node.unlock_us_p99", unlock, 0.99, 1e3, false, "sessions")
	o.set("transport.frames_per_grant", ratio(frames, g), 0, "")
	o.set("transport.batched_share", ratio(float64(tr.BatchedWrites-before.transport.BatchedWrites), frames), 0, "")
	o.set("transport.frames_per_s", frames/lr.wall.Seconds(), 0, "")
	setQuantile(o, "transport.hop_us_p50", obs.hops, 0.5, 1e3, false, "hops")
	setQuantile(o, "transport.hop_us_p99", obs.hops, 0.99, 1e3, false, "hops")
	o.set("transport.queue_depth_max", float64(depthMax), 0, "")
	o.set("transport.dropped", float64(tr.DroppedBackpressure+tr.DroppedWriteError-
		before.transport.DroppedBackpressure-before.transport.DroppedWriteError), 0, "")
	o.set("transport.reconnects", float64(tr.Reconnects-before.transport.Reconnects), 0, "")
	o.set("process.cpu_ms_per_grant", untracedCPU, 0, "")
	o.set("trace.overhead", ratio(tracedCPU, untracedCPU)-1, 0, "")
	if len(acq) > 0 {
		explained := median(lateM) + median(entry) + median(toGrant) + median(wakeup)
		o.set("trace.unexplained_share", 1-explained/median(acq), len(acq), "sessions")
	}
	return o, nil
}
