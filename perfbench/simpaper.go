package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"adaptivetoken/internal/bench"
	"adaptivetoken/internal/driver"
	"adaptivetoken/internal/host"
	"adaptivetoken/internal/protocol"
	"adaptivetoken/internal/sim"
	"adaptivetoken/internal/workload"
)

// paperParams sizes the sim-paper workload.
type paperParams struct {
	Requests int
	MaxTime  sim.Time
	// Setups is how many times a run builds the full job set to time
	// set-up, after one untimed warm-up.
	Setups int
}

// paperDefaults is the CI size of bench.DefaultOptions: one Figure 9 plus
// Figure 10 pass takes about 2 s here, so a 10 s run holds ~5 passes.
var paperDefaults = paperParams{Requests: 1500, MaxTime: 5_000_000, Setups: 15}

// workloadSalt is the salt driver.RunWorkload (and shard.TakeKeyed) mix
// into the seed before drawing arrivals; the replica path below must draw
// the same inputs.
const workloadSalt = 0xa5a5a5a5a5a5a5a5

// paperJob is one simulation run of bench.Figure9 (table 0) or
// bench.Figure10 (table 1), whose result lands in the given table row.
type paperJob struct {
	table, row int
	variant    protocol.Variant
	n          int
	gap        float64
}

// paperJobs lists the runs of Figure 9 (fixed load, sweeping n) and
// Figure 10 (n = 100, sweeping load) in table order.
func paperJobs() []paperJob {
	var jobs []paperJob
	for row, n := range []int{8, 16, 32, 64, 100, 128, 256, 512, 1000} {
		for _, v := range []protocol.Variant{protocol.RingToken, protocol.LinearSearch, protocol.BinarySearch} {
			jobs = append(jobs, paperJob{table: 0, row: row, variant: v, n: n, gap: 10})
		}
	}
	for row, gap := range []float64{1, 2, 5, 10, 20, 50, 100, 200, 500} {
		for _, v := range []protocol.Variant{protocol.RingToken, protocol.BinarySearch} {
			jobs = append(jobs, paperJob{table: 1, row: row, variant: v, n: 100, gap: gap})
		}
	}
	return jobs
}

// paperTables runs the two figures the way a reproducer does and returns
// both tables.
func paperTables(seed uint64, p paperParams, stats *bench.RunStats) ([]bench.Table, error) {
	opts := bench.Options{Seed: seed, SeedSet: true, Requests: p.Requests, MaxTime: p.MaxTime, Parallelism: 1, Stats: stats}
	f9, err := bench.Figure9(opts)
	if err != nil {
		return nil, err
	}
	f10, err := bench.Figure10(opts)
	if err != nil {
		return nil, err
	}
	return []bench.Table{f9, f10}, nil
}

// tableDigest is the SHA-256 of the rendered tables.
func tableDigest(tables []bench.Table) string {
	h := sha256.New()
	for _, t := range tables {
		h.Write([]byte(t.Format()))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// paperDigestFile holds the recorded table digests, per seed, at one
// request count.
type paperDigestFile struct {
	Requests int               `json:"requests"`
	Digests  map[uint64]string `json:"digests"`
}

//go:embed testdata/sim_paper_digests.json
var recordedDigests []byte

// referenceSeed is checked against the recorded digest on every run whose
// own seed has no recorded digest.
const referenceSeed = 1

// has reports whether a digest is recorded for seed at this request count.
func (f paperDigestFile) has(seed uint64, requests int) bool {
	_, ok := f.Digests[seed]
	return ok && f.Requests == requests
}

// check compares the tables with the digest recorded for seed.
func (f paperDigestFile) check(seed uint64, tables []bench.Table) error {
	if got, want := tableDigest(tables), f.Digests[seed]; got != want {
		return fmt.Errorf("seed %d: table digest %s, recorded %s", seed, got, want)
	}
	return nil
}

func writePaperDigests(path string) error {
	f := paperDigestFile{Requests: paperDefaults.Requests, Digests: map[uint64]string{}}
	for seed := uint64(0); seed <= 20; seed++ {
		tables, err := paperTables(seed, paperDefaults, nil)
		if err != nil {
			return err
		}
		f.Digests[seed] = tableDigest(tables)
	}
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// paperRun is one job set up through the driver directly: the replica of
// what bench.Figure9/Figure10 do inside driver.RunWorkload, split into
// construction, input generation, scheduling and running so each can be
// timed on its own.
type paperRun struct {
	job  paperJob
	r    *driver.Runner
	last sim.Time
	obs  *simCounter
}

// phaseTimes sums the time spent in each set-up and run phase.
type phaseTimes struct{ newRunner, take, schedule, run time.Duration }

// setupPaper builds every job's runner, draws its arrivals and schedules
// them. With spans set it records one span per phase, traced per job, and
// attaches a step counter to each runner.
func setupPaper(seed uint64, p paperParams, spans *spanLog) ([]paperRun, phaseTimes, error) {
	var pt phaseTimes
	jobs := paperJobs()
	runs := make([]paperRun, len(jobs))
	for i, j := range jobs {
		trace := int64(i + 1)
		cfg := protocol.Config{Variant: j.variant, N: j.n}
		if j.variant != protocol.RingToken {
			cfg.TrapGC = protocol.GCRotation // as bench's figure configuration
		}
		opts := driver.Options{Seed: seed}
		run := paperRun{job: j}
		if spans != nil {
			run.obs = &simCounter{}
			opts.Observer = run.obs
		}
		var err error
		pt.newRunner += spans.timed(trace, 0, "driver.new", func() { run.r, err = driver.New(cfg, opts) })
		if err != nil {
			return nil, pt, err
		}
		var reqs []workload.Request
		pt.take += spans.timed(trace, 0, "workload.take", func() {
			reqs = workload.Take(workload.Poisson{N: j.n, MeanGap: j.gap}, sim.NewRNG(seed^workloadSalt), p.Requests)
		})
		pt.schedule += spans.timed(trace, 0, "driver.schedule", func() {
			for _, q := range reqs {
				if err = run.r.Request(q.At, q.Node); err != nil {
					return
				}
			}
		})
		if err != nil {
			return nil, pt, err
		}
		run.last = reqs[len(reqs)-1].At
		runs[i] = run
	}
	return runs, pt, nil
}

// runReplica drives one set-up job to completion with the loop of
// driver.RunWorkload: slices of 10 000 time units until every request is
// served, checking the single-token invariant after each slice.
func (pr *paperRun) runReplica(maxTime sim.Time) (driver.Result, error) {
	eng := pr.r.Engine()
	for eng.Now() < maxTime {
		eng.RunUntil(min(eng.Now()+10_000, maxTime))
		if err := pr.r.InvariantErr(); err != nil {
			return driver.Result{}, err
		}
		if pr.r.Waits.Outstanding() == 0 && eng.Now() >= pr.last {
			break
		}
	}
	if n := pr.r.Waits.Outstanding(); n > 0 {
		return driver.Result{}, fmt.Errorf("%s n=%d: %d requests unserved", pr.job.variant, pr.job.n, n)
	}
	return pr.r.Summarize(eng.Now()), nil
}

// tableCell returns the table value the job's run produced.
func tableCell(tables []bench.Table, j paperJob) float64 {
	return tables[j.table].Points[j.row].Y[j.variant.String()]
}

func runSimPaper(cfg runConfig, p paperParams) (*outcome, error) {
	o := newOutcome()
	var recorded paperDigestFile
	if err := json.Unmarshal(recordedDigests, &recorded); err != nil {
		return nil, fmt.Errorf("recorded digests: %w", err)
	}
	jobs := paperJobs()
	nodes := 0
	for _, j := range jobs {
		nodes += j.n
	}

	// Set-up, several times after one untimed warm-up, in CPU time
	// between two probes of the host's speed; the last set of runners
	// stays live for the heap reading and the replica run.
	var setups []float64
	var runs []paperRun
	speed := hostSpeed(1)
	for i := 0; i <= p.Setups; i++ {
		runs = nil
		runtime.GC()
		c0 := cpuTime()
		var err error
		runs, _, err = setupPaper(cfg.seed, p, nil)
		if err != nil {
			return nil, err
		}
		if i > 0 {
			setups = append(setups, (cpuTime() - c0).Seconds())
		}
	}
	speed = (speed + hostSpeed(1)) / 2
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	o.set("setup_s", median(setups)*speed, len(setups), "setups")
	o.set("peak_heap_bytes_per_node", float64(ms.HeapAlloc)/float64(nodes), 0, "")

	// The replica run gives every request's wait (request → own grant)
	// and cross-checks the timed path below cell by cell.
	replica := make([]float64, len(runs))
	var waits []float64
	for i := range runs {
		res, err := runs[i].runReplica(p.MaxTime)
		if err != nil {
			o.violate("replica %d: %v", i, err)
			continue
		}
		replica[i] = res.Responsiveness.Mean
		waits = append(waits, runs[i].r.Waits.Samples()...)
	}
	runs = nil
	setSimAcquire(o, waits)

	// The timed passes: bench.Figure9 and bench.Figure10, sequential, as
	// many as fit in the run, each between two probes of the host's speed.
	var evps, goodput, cpuPerGrant, speeds []float64
	var digest string
	var events int64
	start := time.Now()
	for rep := 0; rep < 3 || time.Since(start) < cfg.seconds; rep++ {
		runtime.GC()
		stats := &bench.RunStats{}
		speed := hostSpeed(1)
		c0 := cpuTime()
		tables, err := paperTables(cfg.seed, p, stats)
		cpu := cpuTime() - c0
		speed = (speed + hostSpeed(1)) / 2
		o.attempted += int64(len(jobs))
		if err != nil {
			o.failed += int64(len(jobs))
			o.violate("pass %d: %v", rep, err)
			continue
		}
		snap := stats.Snapshot()
		refSeconds := cpu.Seconds() * speed
		speeds = append(speeds, speed)
		evps = append(evps, float64(snap.SimEvents)/refSeconds)
		goodput = append(goodput, float64(snap.Grants)/refSeconds)
		cpuPerGrant = append(cpuPerGrant, refSeconds*1e3/float64(snap.Grants))
		d := tableDigest(tables)
		if rep == 0 {
			digest, events = d, snap.SimEvents
			if recorded.has(cfg.seed, p.Requests) {
				if err := recorded.check(cfg.seed, tables); err != nil {
					o.violate("%v", err)
				}
			}
			for i := range jobs {
				if got := tableCell(tables, jobs[i]); math.Abs(got-replica[i]) > 1e-9 {
					o.violate("job %d (%s n=%d gap %g): table %v, replica %v", i, jobs[i].variant, jobs[i].n, jobs[i].gap, got, replica[i])
				}
			}
		} else if d != digest || snap.SimEvents != events {
			o.violate("pass %d: tables or event count differ from pass 0", rep)
		}
	}
	if !recorded.has(cfg.seed, p.Requests) {
		tables, err := paperTables(referenceSeed, paperParams{Requests: recorded.Requests, MaxTime: paperDefaults.MaxTime}, nil)
		if err != nil {
			o.violate("reference seed: %v", err)
		} else if err := recorded.check(referenceSeed, tables); err != nil {
			o.violate("%v", err)
		}
	}
	o.set("events_per_s", median(evps), len(evps), "passes")
	o.set("goodput_per_s", median(goodput), len(goodput), "passes")
	o.set("success_ratio", 1-float64(o.failed)/float64(o.attempted), int(o.attempted), "runs")
	o.speed = median(speeds)
	if !cfg.trace {
		return o, nil
	}
	return tracePaper(cfg, p, o, median(cpuPerGrant), events, replica)
}

// setSimAcquire reports a simulated workload's per-request waits, in time
// units, as the acquire latency at the live runtime's default unit of 1 ms.
func setSimAcquire(o *outcome, waits []float64) {
	sort.Float64s(waits)
	for _, q := range []struct {
		name string
		q    float64
	}{{"acquire_p50_ms", 0.5}, {"acquire_p99_ms", 0.99}} {
		v, err := groupedQuantile(waits, q.q)
		if err != nil {
			o.violate("%s: %v", q.name, err)
		}
		o.set(q.name, v, len(waits), "requests")
	}
}

// tracePaper is the traced pass of sim-paper: every job runs through the
// replica path with a step counter attached and each phase in a span.
func tracePaper(cfg runConfig, p paperParams, o *outcome, untracedCPU float64, events int64, replica []float64) (*outcome, error) {
	runtime.GC()
	speed := hostSpeed(1)
	c0, t0 := cpuTime(), time.Now()
	runs, pt, err := setupPaper(cfg.seed, p, cfg.spans)
	if err != nil {
		return nil, err
	}
	var total stepCounts
	var grants, msgs, search, token, tokenReturn, simEvents int64
	var binGrants, binFwd int64
	var log2nWeighted float64
	for i := range runs {
		var res driver.Result
		pt.run += cfg.spans.timed(int64(i+1), 0, "driver.run", func() { res, err = runs[i].runReplica(p.MaxTime) })
		if err != nil {
			o.violate("traced job %d: %v", i, err)
			continue
		}
		if math.Abs(res.Responsiveness.Mean-replica[i]) > 1e-9 {
			o.violate("traced job %d: responsiveness %v, untraced %v", i, res.Responsiveness.Mean, replica[i])
		}
		total.addAll(&runs[i].obs.stepCounts)
		grants += int64(res.Grants)
		simEvents += int64(res.SimEvents)
		msgs += res.TotalMessages
		search += res.Messages[protocol.MsgSearch.String()]
		token += res.Messages[protocol.MsgToken.String()]
		tokenReturn += res.Messages[protocol.MsgTokenReturn.String()]
		if runs[i].job.variant == protocol.BinarySearch {
			binGrants += int64(res.Grants)
			binFwd += runs[i].obs.searchFwd
			log2nWeighted += float64(res.Grants) * math.Ceil(math.Log2(float64(runs[i].job.n)))
		}
	}
	wall, cpu := time.Since(t0), cpuTime()-c0
	speed = (speed + hostSpeed(1)) / 2
	if simEvents != events {
		o.violate("traced pass: %d events, untraced %d", simEvents, events)
	}
	o.metrics = map[string]value{}
	setProtocol(o, grants, msgs, search, token, tokenReturn)
	setSteps(o, &total, grants)
	o.set("protocol.search_fwd_per_grant", ratio(float64(binFwd), float64(binGrants)), 0, "")
	o.set("protocol.search_fwd_log2n", ratio(log2nWeighted, float64(binGrants)), 0, "")
	o.set("sim.events", float64(simEvents), 0, "")
	o.set("sim.ns_per_event", ratio(float64(pt.run), float64(simEvents)), 0, "")
	o.set("workload.take_s", pt.take.Seconds(), 0, "")
	o.set("driver.new_s", pt.newRunner.Seconds(), 0, "")
	o.set("driver.schedule_s", pt.schedule.Seconds(), 0, "")
	o.set("driver.run_s", pt.run.Seconds(), 0, "")
	o.set("process.cpu_ms_per_grant", untracedCPU, 0, "")
	o.set("trace.overhead", ratio(cpu.Seconds()*speed*1e3/float64(grants), untracedCPU)-1, 0, "")
	covered := pt.newRunner + pt.take + pt.schedule + pt.run
	o.set("trace.unexplained_share", 1-covered.Seconds()/wall.Seconds(), 0, "")
	return o, nil
}

// setProtocol reports the protocol layer's messages per grant by kind.
func setProtocol(o *outcome, grants, msgs, search, token, tokenReturn int64) {
	g := float64(grants)
	o.set("protocol.msgs_per_grant", ratio(float64(msgs), g), 0, "")
	o.set("protocol.search_per_grant", ratio(float64(search), g), 0, "")
	o.set("protocol.token_per_grant", ratio(float64(token), g), 0, "")
	o.set("protocol.token_return_per_grant", ratio(float64(tokenReturn), g), 0, "")
}

// setSteps reports the host's steps per grant, in total and by kind.
func setSteps(o *outcome, c *stepCounts, grants int64) {
	g := float64(grants)
	o.set("host.steps_per_grant", ratio(float64(c.total()), g), 0, "")
	o.set("host.deliver_per_grant", ratio(float64(c.kinds[host.StepDeliver]), g), 0, "")
	o.set("host.timer_per_grant", ratio(float64(c.kinds[host.StepTimer]), g), 0, "")
	o.set("host.request_per_grant", ratio(float64(c.kinds[host.StepRequest]), g), 0, "")
	o.set("host.release_per_grant", ratio(float64(c.kinds[host.StepRelease]), g), 0, "")
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
