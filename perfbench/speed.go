package main

import (
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The host's speed drifts: on a shared virtual machine the same pass of
// the same code took 1.5 to 1.7 times the CPU time it took on a quiet
// host, changing from one run to the next as neighbours loaded the
// physical cores. A fixed probe kernel, run on as many threads as the
// timed work uses just before and just after it, measures the host's speed
// at that moment; the CPU-bound metrics multiply their CPU time by it, so
// they read in CPU seconds of a reference host and move with the program,
// not with the neighbours. The kernel is the benchmark's own code: no
// change to the program alters it.

// probeOps is the work of one probe slice, about 35 ms on the reference
// host.
const probeOps = 400_000

// probeTable is the length of the probe's table, a power of two.
const probeTable = 1 << 17

// refProbeRate is the probe's rate, in operations per CPU second, on the
// reference host (an Intel Xeon virtual machine with 2 vCPUs); a host that
// runs the probe at this rate has speed 1.
const refProbeRate = 11.2e6

// probeEvent is one entry of the probe's event queue.
type probeEvent struct {
	at   uint64
	node uint32
}

// probeState is one probe thread's working set, shaped like a
// simulation's: a 64 KiB event queue, an 8 KiB counter array and a 1 MiB
// table, all within a core's second-level cache.
// A larger table made the probe's rate depend on where its pages landed,
// by ±5% from one process to the next. The state lives outside the Go
// heap, so it adds nothing to the heap the benchmark reports.
type probeState struct {
	queue  []probeEvent
	counts []uint64
	table  []uint64
}

func newProbeState() *probeState {
	const queueCap, countsLen = 4096, 1024
	qBytes := queueCap * int(unsafe.Sizeof(probeEvent{}))
	mem, err := syscall.Mmap(-1, 0, qBytes+8*(countsLen+probeTable),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		fatal(fmt.Errorf("speed probe: %w", err))
	}
	words := unsafe.Slice((*uint64)(unsafe.Pointer(&mem[qBytes])), countsLen+probeTable)
	p := &probeState{
		queue:  unsafe.Slice((*probeEvent)(unsafe.Pointer(&mem[0])), queueCap)[:0],
		counts: words[:countsLen],
		table:  words[countsLen:],
	}
	for i := range p.table {
		p.table[i] = uint64(i)
	}
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < queueCap; i++ {
		x = xorshift(x)
		p.push(probeEvent{at: x % 100_000, node: uint32(x >> 40)})
	}
	return p
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

func (p *probeState) push(e probeEvent) {
	q := append(p.queue, e)
	for i := len(q) - 1; i > 0; {
		up := (i - 1) / 2
		if q[up].at <= q[i].at {
			break
		}
		q[up], q[i] = q[i], q[up]
		i = up
	}
	p.queue = q
}

func (p *probeState) pop() probeEvent {
	q := p.queue
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && q[c+1].at < q[c].at {
			c++
		}
		if q[i].at <= q[c].at {
			break
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
	p.queue = q
	return top
}

// run executes ops steps of the kernel: pop the earliest event, update a
// counter and a table slot, push a later event. It allocates nothing.
func (p *probeState) run(ops int) uint64 {
	x := uint64(0x2545f4914f6cdd1d)
	for i := 0; i < ops; i++ {
		e := p.pop()
		x = xorshift(x)
		p.counts[e.node%uint32(len(p.counts))] += e.at
		p.table[x&(probeTable-1)] += uint64(e.node)
		p.push(probeEvent{at: e.at + x%1000, node: uint32(x >> 40)})
	}
	return x
}

// threadCPU returns the calling thread's CPU time.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

var (
	// probes are the probe threads' working sets, built on first use and
	// reused, so a probe slice neither allocates nor faults pages in.
	probes []*probeState
	// probeSink keeps the kernel's result alive.
	probeSink uint64
)

// hostSpeed runs one probe slice on each of threads locked OS threads at
// once and returns the host's speed: the probe's rate over all of them, in
// operations per thread-CPU second, divided by refProbeRate.
func hostSpeed(threads int) float64 {
	for len(probes) < threads {
		probes = append(probes, newProbeState())
	}
	cpu := make([]time.Duration, threads)
	sink := make([]uint64, threads)
	var wg sync.WaitGroup
	wg.Add(threads)
	for t := 0; t < threads; t++ {
		go func() {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			c0 := threadCPU()
			sink[t] = probes[t].run(probeOps)
			cpu[t] = threadCPU() - c0
		}()
	}
	wg.Wait()
	var total time.Duration
	for t := range cpu {
		total += cpu[t]
		probeSink += sink[t]
	}
	return float64(threads*probeOps) / total.Seconds() / refProbeRate
}
