package bench

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"testing"
)

// perfBudget is the checked-in throughput budget (perf_budget.json) of the
// fixed fig9 slice the allocation gate runs. It is a ratio, not a rate: the
// slice's simulated events per thread-CPU second divided by a calibration
// kernel's operations per thread-CPU second, both measured on one locked
// OS thread within a few tens of milliseconds of each other. A host twice
// as fast runs both twice as fast, so the ratio holds on any machine while
// a 2× slowdown of the program still halves it. The gate fails when the
// best measured ratio falls below the budget by more than the headroom —
// the CI throughput-regression check introduced with the timing-wheel
// scheduler (see EXPERIMENTS.md and `make bench-mem`). Regenerate
// deliberately with PERF_BUDGET_PRINT=1 after an accepted performance
// change.
//
//go:embed perf_budget.json
var perfBudgetJSON []byte

type perfBudget struct {
	// EventsPerKernelOp is the reference ratio: the slice's events per
	// thread-CPU second over calKernel's operations per thread-CPU second.
	EventsPerKernelOp float64 `json:"events_per_kernel_op"`
	// Headroom is the tolerated relative slowdown (0.40 = a ratio 40%
	// below the reference still passes). The ratio cancels the host's
	// speed but not its microarchitecture — the program and the kernel
	// need not gain equally from a larger cache — so this gate is loose
	// where the alloc gate is tight; it exists to catch algorithmic
	// regressions of 2x+, not percent-level noise.
	Headroom float64 `json:"headroom"`
}

// floor is the lowest ratio the gate accepts.
func (b perfBudget) floor() float64 { return b.EventsPerKernelOp * (1 - b.Headroom) }

// check compares a measured ratio against the budget.
func (b perfBudget) check(ratio float64) error {
	if ratio < b.floor() {
		return fmt.Errorf("throughput regression: %.4f events per kernel op below floor %.4f (budget %.4f -%.0f%%)",
			ratio, b.floor(), b.EventsPerKernelOp, b.Headroom*100)
	}
	return nil
}

func loadPerfBudget(tb testing.TB) perfBudget {
	tb.Helper()
	var budget perfBudget
	if err := json.Unmarshal(perfBudgetJSON, &budget); err != nil {
		tb.Fatalf("perf_budget.json: %v", err)
	}
	if budget.EventsPerKernelOp <= 0 || budget.Headroom <= 0 || budget.Headroom >= 1 {
		tb.Fatalf("perf_budget.json not sane: %+v", budget)
	}
	return budget
}

// calKernel is the gate's calibration workload, shaped like the inner loop
// of a simulation: pop the earliest event of a 4096-entry binary heap,
// bump a per-node counter, touch a slot of a 1 MiB table, push a later
// event. Its working set stays within a core's second-level cache and it
// allocates nothing after construction. It lives in this test file on
// purpose: no change to the program can make it faster or slower, so it
// measures only the host.
type calKernel struct {
	heap   []uint64 // (time << 16 | node), min-heap
	counts [1024]uint64
	table  []uint64
	x      uint64 // xorshift state
}

const (
	calHeap  = 4096
	calTable = 1 << 17
	// calOps is one calibration pass, ~10 ms on a 2-CPU Intel Xeon VM.
	calOps = 100_000
)

func newCalKernel() *calKernel {
	k := &calKernel{heap: make([]uint64, 0, calHeap), table: make([]uint64, calTable), x: 0x2545f4914f6cdd1d}
	for i := 0; i < calHeap; i++ {
		k.push(k.next() % 100_000 << 16)
	}
	return k
}

func (k *calKernel) next() uint64 {
	k.x ^= k.x << 13
	k.x ^= k.x >> 7
	k.x ^= k.x << 17
	return k.x
}

func (k *calKernel) push(v uint64) {
	h := append(k.heap, v)
	for i := len(h) - 1; i > 0; {
		up := (i - 1) / 2
		if h[up] <= h[i] {
			break
		}
		h[up], h[i] = h[i], h[up]
		i = up
	}
	k.heap = h
}

func (k *calKernel) pop() uint64 {
	h := k.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1] < h[c] {
			c++
		}
		if h[i] <= h[c] {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	k.heap = h
	return top
}

// run executes ops kernel steps.
func (k *calKernel) run(ops int) {
	for i := 0; i < ops; i++ {
		ev := k.pop()
		r := k.next()
		node := ev & 0xffff
		k.counts[node%uint64(len(k.counts))] += ev >> 16
		k.table[r&(calTable-1)] += node
		k.push((ev>>16+r%1000)<<16 | r>>48)
	}
}

// rate returns the kernel's operations per second of the calling thread's
// CPU time.
func (k *calKernel) rate() float64 {
	c0 := threadCPU()
	k.run(calOps)
	return calOps / (threadCPU() - c0).Seconds()
}

// gateRatio measures the slice's host-independent throughput on one
// locked OS thread: passes alternations of a calibration pass and a timed
// slice, each timed in thread CPU with the collector off (a cycle landing
// in one pass and not another would be noise). Contention from
// neighbouring load only ever slows a pass, so the best slice rate and the
// best kernel rate are each the host's uncontended speed; their ratio is
// the slice's events per kernel op.
func gateRatio(passes int, slice func() int64) float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	k := newCalKernel()
	k.run(calOps) // fault the table in
	var bestKernel, bestSlice float64
	for i := 0; i < passes; i++ {
		runtime.GC()
		bestKernel = max(bestKernel, k.rate())
		c0 := threadCPU()
		events := slice()
		bestSlice = max(bestSlice, float64(events)/(threadCPU()-c0).Seconds())
	}
	bestKernel = max(bestKernel, k.rate())
	return bestSlice / bestKernel
}

// TestThroughputBudget is the throughput-regression gate: the fixed fig9
// slice, run sequentially, must keep its ratio to the calibration kernel
// within the headroom of the budget.
func TestThroughputBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("throughput gate: the race detector's slowdown is meaningless against the budget")
	}
	budget := loadPerfBudget(t)
	ratio := gateRatio(15, gateSlice(t))

	if os.Getenv("PERF_BUDGET_PRINT") != "" {
		out, _ := json.MarshalIndent(perfBudget{
			EventsPerKernelOp: round4(ratio),
			Headroom:          budget.Headroom,
		}, "", "  ")
		fmt.Printf("measured budget:\n%s\n", out)
	}

	t.Logf("throughput %.4f events per kernel op (budget %.4f, floor %.4f)", ratio, budget.EventsPerKernelOp, budget.floor())
	if err := budget.check(ratio); err != nil {
		t.Error(err)
	}
}

// TestThroughputGateRejectsHalfSpeed shows the gate catches what it is for:
// a budget recorded from the slice on this host accepts the slice and
// rejects the same slice made twice as slow per event (run twice, counted
// once), whatever the host's speed.
func TestThroughputGateRejectsHalfSpeed(t *testing.T) {
	if raceEnabled {
		t.Skip("throughput gate: the race detector's slowdown is meaningless against the budget")
	}
	slice := gateSlice(t)
	half := func() int64 {
		events := slice()
		slice()
		return events
	}
	// Interleaved rounds, so a quiet spell of the host favours neither.
	var ratio, slow float64
	for round := 0; round < 3; round++ {
		ratio = max(ratio, gateRatio(3, slice))
		slow = max(slow, gateRatio(3, half))
	}
	budget := perfBudget{EventsPerKernelOp: ratio, Headroom: loadPerfBudget(t).Headroom}
	t.Logf("ratio %.4f, at half speed %.4f, floor %.4f", ratio, slow, budget.floor())
	if err := budget.check(ratio); err != nil {
		t.Errorf("gate rejects the slice it was recorded from: %v", err)
	}
	if budget.check(slow) == nil {
		t.Errorf("gate accepts a 2x slower slice: ratio %.4f >= floor %.4f", slow, budget.floor())
	}
}
