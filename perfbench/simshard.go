package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"adaptivetoken/internal/driver"
	"adaptivetoken/internal/protocol"
	"adaptivetoken/internal/shard"
	"adaptivetoken/internal/sim"
	"adaptivetoken/internal/workload"
)

// shardParams sizes the sim-shard workload.
type shardParams struct {
	Shards, Nodes, Requests int
	MeanGap                 float64
	MaxTime                 sim.Time
	// Workers is the shard pool size (Config.Parallel).
	Workers int
}

// shardDefaults: 8 rings of 16384 nodes hold ~110 MB of protocol state,
// far beyond the caches. 60 000 requests at aggregate mean gap 10 take
// about 2.5 s on two workers, so a 10 s run holds ~4 passes.
var shardDefaults = shardParams{
	Shards: 8, Nodes: 16384, Requests: 60_000, MeanGap: 10,
	MaxTime: 50_000_000, Workers: runtime.NumCPU(),
}

func (p shardParams) cluster(seed uint64, observers []driver.Observer) (*shard.Cluster, error) {
	return shard.NewCluster(shard.Config{
		Shards:    p.Shards,
		Nodes:     p.Nodes,
		Protocol:  protocol.Config{Variant: protocol.BinarySearch, TrapGC: protocol.GCRotation},
		Seed:      seed,
		Parallel:  p.Workers,
		Observers: observers,
	})
}

func (p shardParams) take(seed uint64) []shard.KeyedRequest {
	return shard.TakeKeyed(seed, p.Shards*p.Nodes, p.MeanGap, p.Requests)
}

func runSimShard(cfg runConfig, p shardParams) (*outcome, error) {
	o := newOutcome()
	var setups, evps, goodput, cpuPerGrant, speeds []float64
	var waits []float64
	var events int64 = -1
	var peakHeap uint64
	start := time.Now()
	for rep := 0; rep < 3 || time.Since(start) < cfg.seconds; rep++ {
		runtime.GC()
		speed := hostSpeed(p.Workers)
		c0 := cpuTime()
		c, err := p.cluster(cfg.seed, nil)
		if err != nil {
			return nil, err
		}
		keyed := p.take(cfg.seed)
		setup := cpuTime() - c0

		c0 = cpuTime()
		results, err := c.RunAll(keyed, p.MaxTime)
		cpu := cpuTime() - c0
		speed = (speed + hostSpeed(p.Workers)) / 2
		setups = append(setups, setup.Seconds()*speed)
		o.attempted += int64(p.Shards)
		if err != nil {
			o.failed += int64(p.Shards)
			o.violate("pass %d: %v", rep, err)
			continue
		}
		if err := c.Census(); err != nil {
			o.failed += int64(p.Shards)
			o.violate("pass %d: %v", rep, err)
			continue
		}
		var ev, grants int64
		for _, r := range results {
			ev += int64(r.SimEvents)
			grants += int64(r.Grants)
		}
		if events >= 0 && ev != events {
			o.violate("pass %d: %d events, pass 0 had %d", rep, ev, events)
		}
		events = ev
		refSeconds := cpu.Seconds() * speed
		speeds = append(speeds, speed)
		evps = append(evps, float64(ev)/refSeconds)
		goodput = append(goodput, float64(grants)/refSeconds)
		cpuPerGrant = append(cpuPerGrant, refSeconds*1e3/float64(grants))
		if waits == nil {
			for k := 0; k < p.Shards; k++ {
				waits = append(waits, c.Shard(k).Waits.Samples()...)
			}
		}
		// The cluster is still live: the post-GC heap is its working set.
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		peakHeap = max(peakHeap, ms.HeapAlloc)
		runtime.KeepAlive(c)
	}
	if len(evps) == 0 {
		return o, nil
	}
	o.set("setup_s", median(setups), len(setups), "setups")
	o.set("events_per_s", median(evps), len(evps), "passes")
	o.set("peak_heap_bytes_per_node", float64(peakHeap)/float64(p.Shards*p.Nodes), len(evps), "passes")
	o.set("goodput_per_s", median(goodput), len(goodput), "passes")
	o.set("success_ratio", 1-float64(o.failed)/float64(o.attempted), int(o.attempted), "shard runs")
	o.speed = median(speeds)
	setSimAcquire(o, waits)
	if !cfg.trace {
		return o, nil
	}
	return traceShard(cfg, p, o, median(cpuPerGrant), events)
}

// traceShard is the traced pass of sim-shard: the steps of RunAll — split,
// then Cluster.Run per shard on the worker pool, then the census — are
// called one by one so each is a span, and every shard counts its steps.
// shard.speedup is the summed per-shard run time over the pool's wall
// time, both from this pass.
func traceShard(cfg runConfig, p shardParams, o *outcome, untracedCPU float64, events int64) (*outcome, error) {
	sp := cfg.spans
	runtime.GC()
	speed := hostSpeed(p.Workers)
	c0, t0 := cpuTime(), time.Now()
	counters := make([]*simCounter, p.Shards)
	observers := make([]driver.Observer, p.Shards)
	for k := range counters {
		counters[k] = &simCounter{}
		observers[k] = counters[k]
	}
	var c *shard.Cluster
	var err error
	newDur := sp.timed(0, 0, "shard.new_cluster", func() { c, err = p.cluster(cfg.seed, observers) })
	if err != nil {
		return nil, err
	}
	var keyed []shard.KeyedRequest
	takeDur := sp.timed(0, 0, "shard.take_keyed", func() { keyed = p.take(cfg.seed) })
	var sink int
	routeDur := sp.timed(0, 0, "shard.route", func() {
		r := c.Router()
		for _, kr := range keyed {
			sink += r.Route(kr.Key)
		}
	})
	var per [][]workload.Request
	splitDur := sp.timed(0, 0, "shard.split", func() { per = c.Split(keyed) })

	// The pool of RunSplit, with each shard's run in its own span.
	runs := make([]time.Duration, p.Shards)
	errs := make([]error, p.Shards)
	ends := make([]sim.Time, p.Shards)
	var next atomic.Int64
	var wg sync.WaitGroup
	poolDur := sp.timed(0, 0, "shard.pool", func() {
		workers := min(max(p.Workers, 1), p.Shards)
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for k := int(next.Add(1)) - 1; k < p.Shards; k = int(next.Add(1)) - 1 {
					runs[k] = sp.timed(int64(k+1), 0, fmt.Sprintf("shard.run/%d", k), func() {
						ends[k], errs[k] = c.Run(k, per[k], p.MaxTime)
					})
				}
			}()
		}
		wg.Wait()
	})
	var censusErr error
	censusDur := sp.timed(0, 0, "shard.census", func() { censusErr = c.Census() })
	wall, cpu := time.Since(t0), cpuTime()-c0
	speed = (speed + hostSpeed(p.Workers)) / 2

	var total stepCounts
	var grants, msgs, search, token, tokenReturn, simEvents int64
	var sum, slowest time.Duration
	for k := 0; k < p.Shards; k++ {
		if errs[k] != nil {
			o.violate("traced %v", errs[k])
			continue
		}
		res := c.Shard(k).Summarize(ends[k])
		total.addAll(&counters[k].stepCounts)
		grants += int64(res.Grants)
		simEvents += int64(res.SimEvents)
		msgs += res.TotalMessages
		search += res.Messages[protocol.MsgSearch.String()]
		token += res.Messages[protocol.MsgToken.String()]
		tokenReturn += res.Messages[protocol.MsgTokenReturn.String()]
		sum += runs[k]
		slowest = max(slowest, runs[k])
	}
	if censusErr != nil {
		o.violate("traced pass: %v", censusErr)
	}
	if simEvents != events {
		o.violate("traced pass: %d events, untraced %d", simEvents, events)
	}
	o.metrics = map[string]value{}
	setProtocol(o, grants, msgs, search, token, tokenReturn)
	setSteps(o, &total, grants)
	o.set("protocol.search_fwd_per_grant", ratio(float64(total.searchFwd), float64(grants)), 0, "")
	o.set("protocol.search_fwd_log2n", math.Ceil(math.Log2(float64(p.Nodes))), 0, "")
	o.set("sim.events", float64(simEvents), 0, "")
	o.set("sim.ns_per_event", ratio(float64(sum), float64(simEvents)), 0, "")
	o.set("workload.take_s", takeDur.Seconds(), 0, "")
	o.set("driver.new_s", newDur.Seconds(), 0, "")
	o.set("driver.run_s", sum.Seconds(), 0, "")
	o.set("shard.route_ns", ratio(float64(routeDur), float64(len(keyed))), len(keyed), "keys")
	o.set("shard.split_s", splitDur.Seconds(), 0, "")
	o.set("shard.speedup", ratio(float64(sum), float64(poolDur)), 0, "")
	o.set("shard.slowest_share", ratio(float64(slowest), float64(sum)), 0, "")
	o.set("process.cpu_ms_per_grant", untracedCPU, 0, "")
	o.set("trace.overhead", ratio(cpu.Seconds()*speed*1e3/float64(grants), untracedCPU)-1, 0, "")
	covered := newDur + takeDur + routeDur + splitDur + poolDur + censusDur
	o.set("trace.unexplained_share", 1-covered.Seconds()/wall.Seconds(), 0, "")
	runtime.KeepAlive(sink)
	return o, nil
}
