package main

import (
	"context"
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"adaptivetoken/internal/loadgen"
	"adaptivetoken/internal/protocol"
)

// checkOutcome fails the test on any violation and on a missing metric.
func checkOutcome(t *testing.T, o *outcome, err error, specs []spec, requireAll bool) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	if len(o.violations) > 0 {
		t.Fatalf("violations: %v", o.violations)
	}
	if o.attempted < 1 || o.failed != 0 {
		t.Fatalf("attempted %d, failed %d", o.attempted, o.failed)
	}
	var sb strings.Builder
	res, err := report(&sb, o, specs, requireAll)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || len(res.Metrics) != len(specs) {
		t.Fatalf("result %+v", res)
	}
	t.Log("\n" + sb.String())
}

func smokeConfig(trace bool, seconds time.Duration) runConfig {
	cfg := runConfig{seed: 7, seconds: seconds, trace: trace, acquireLimit: 2 * time.Second}
	if trace {
		cfg.spans = newSpanLog()
	}
	return cfg
}

func TestSmokeSimPaper(t *testing.T) {
	p := paperParams{Requests: 100, MaxTime: paperDefaults.MaxTime, Setups: 2}
	o, err := runSimPaper(smokeConfig(false, time.Millisecond), p)
	checkOutcome(t, o, err, endToEnd, true)
	o, err = runSimPaper(smokeConfig(true, time.Millisecond), p)
	checkOutcome(t, o, err, perLayer, false)
	if o.metrics["sim.events"].v <= 0 || o.metrics["driver.run_s"].v <= 0 {
		t.Errorf("traced pass measured nothing: %+v", o.metrics)
	}
}

func TestSmokeSimShard(t *testing.T) {
	p := shardParams{Shards: 2, Nodes: 64, Requests: 2000, MeanGap: 10, MaxTime: shardDefaults.MaxTime, Workers: 2}
	o, err := runSimShard(smokeConfig(false, time.Millisecond), p)
	checkOutcome(t, o, err, endToEnd, true)
	o, err = runSimShard(smokeConfig(true, time.Millisecond), p)
	checkOutcome(t, o, err, perLayer, false)
	if o.metrics["shard.speedup"].v <= 0 || o.metrics["shard.route_ns"].v <= 0 {
		t.Errorf("traced pass measured nothing: %+v", o.metrics)
	}
}

func TestSmokeLive(t *testing.T) {
	for _, tc := range []struct {
		name     string
		holdIdle protocol.Time
	}{{"paced", pacedDefaults.HoldIdle}, {"spin", spinDefaults.HoldIdle}} {
		t.Run(tc.name, func(t *testing.T) {
			p := liveParams{Nodes: 4, Rate: 600, Hold: 100 * time.Microsecond, HoldIdle: tc.holdIdle, MaxInFlight: 1024, Setups: 2}
			o, err := runLive(smokeConfig(true, 2*time.Second), p)
			checkOutcome(t, o, err, perLayer, false)
			if o.metrics["transport.frames_per_grant"].v <= 0 || o.metrics["node.to_grant_ms"].n == 0 {
				t.Errorf("traced pass measured nothing: %+v", o.metrics)
			}
		})
	}
}

// freeLocker grants every Lock at once: no mutual exclusion at all.
type freeLocker struct{}

func (freeLocker) Lock(context.Context) error { return nil }
func (freeLocker) Unlock() error              { return nil }

// chanLocker is an exclusive Locker shared by every "node".
type chanLocker chan struct{}

func (c chanLocker) Lock(ctx context.Context) error {
	select {
	case c <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (c chanLocker) Unlock() error { <-c; return nil }

// burst schedules n sessions 100 µs apart over two nodes.
func burst(n int) schedule {
	s := schedule{offsets: make([]time.Duration, n), nodes: make([]int, n)}
	for i := range s.offsets {
		s.offsets[i] = time.Duration(i) * 100 * time.Microsecond
		s.nodes[i] = i % 2
	}
	return s
}

func TestGuardTripsOnNonExclusiveLocker(t *testing.T) {
	lr := runLoad([]loadgen.Locker{freeLocker{}, freeLocker{}}, burst(50), time.Millisecond, time.Second, 64)
	o := newOutcome()
	lr.tally(o, time.Second)
	if lr.overlaps == 0 || len(o.violations) == 0 {
		t.Fatalf("overlapping critical sections not reported: overlaps %d, violations %v", lr.overlaps, o.violations)
	}

	excl := make(chanLocker, 1)
	lr = runLoad([]loadgen.Locker{excl, excl}, burst(50), 100*time.Microsecond, time.Second, 64)
	o = newOutcome()
	if completed := lr.tally(o, time.Second); len(o.violations) > 0 || completed != 50 {
		t.Fatalf("exclusive locker: completed %d, violations %v", completed, o.violations)
	}
}

func TestDigestCheckTripsOnPerturbedTable(t *testing.T) {
	var recorded paperDigestFile
	if err := json.Unmarshal(recordedDigests, &recorded); err != nil {
		t.Fatal(err)
	}
	p := paperDefaults
	p.Requests = recorded.Requests
	tables, err := paperTables(referenceSeed, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !recorded.has(referenceSeed, p.Requests) {
		t.Fatalf("no digest recorded for seed %d", referenceSeed)
	}
	if err := recorded.check(referenceSeed, tables); err != nil {
		t.Fatalf("unperturbed tables: %v", err)
	}
	tables[1].Points[4].Y["binsearch"] += 0.01
	if err := recorded.check(referenceSeed, tables); err == nil {
		t.Fatal("perturbed table passed the digest check")
	}
}

func TestBenchmarkJSONNamesEveryMetric(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	for _, w := range bj.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %s, benchmark has %v", w.Name, workloadNames())
		}
	}
	for _, c := range []struct {
		json []struct{ Name, Unit string }
		code []spec
	}{{bj.EndToEnd, endToEnd}, {bj.PerLayer, perLayer}} {
		if len(c.json) != len(c.code) {
			t.Fatalf("BENCHMARK.json lists %d metrics, benchmark reports %d", len(c.json), len(c.code))
		}
		for i, m := range c.json {
			if m.Name != c.code[i].name || m.Unit != c.code[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s [%s], benchmark %s [%s]", i, m.Name, m.Unit, c.code[i].name, c.code[i].unit)
			}
		}
	}
}

func TestQuantiles(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i / 100) // ten values, a hundred of each
	}
	if v, err := quantile(xs, 0.99); err != nil || v != 9 {
		t.Errorf("p99 = %v, %v", v, err)
	}
	// Rank 500 is the last sample of the bin of 4s: 4 - 0.5 + 100/100.
	if v, err := groupedQuantile(xs, 0.5); err != nil || v != 4.5 {
		t.Errorf("grouped p50 = %v, %v", v, err)
	}
	if _, err := quantile(xs[:999], 0.99); err == nil {
		t.Error("p99 of 999 samples has 9 beyond it and must be refused")
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v", m)
	}
}

func TestHostSpeedProbe(t *testing.T) {
	hostSpeed(2) // build both probe states
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, threads := range []int{1, 2} {
		// A quiet host of any current make is within a factor of 10 of
		// the reference; the test guards against unit slips.
		if s := hostSpeed(threads); !(s > 0.1 && s < 10) {
			t.Errorf("hostSpeed(%d) = %v", threads, s)
		}
	}
	runtime.ReadMemStats(&after)
	if d := after.HeapAlloc - before.HeapAlloc; int64(d) > 64<<10 {
		t.Errorf("probe slices grew the heap by %d bytes", d)
	}
}
