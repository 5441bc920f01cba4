package protocol

import (
	"fmt"
	"testing"
	"unsafe"
)

// TestNodeSize pins the per-node footprint: a 10⁶-node ring holds 10⁶ of
// these, so a field added without regrouping shows up directly in the
// heap each simulated node costs. The six flags share one word; the
// trapBits prefilter fits in what their padding used to waste.
func TestNodeSize(t *testing.T) {
	const want = 344
	if got := unsafe.Sizeof(Node{}); got > want {
		t.Fatalf("protocol.Node is %d B, want <= %d B: group new flags with the others", got, want)
	}
}

// servedNode returns a rotation-GC node that never expires a trap by age,
// so only the operations a test applies change its trap table.
func servedNode(tb testing.TB, n int) *Node {
	tb.Helper()
	nd, err := New(0, Config{Variant: BinarySearch, N: n, TrapGC: GCRotation, TrapTTLRounds: 1 << 30, ServedCap: 512})
	if err != nil {
		tb.Fatal(err)
	}
	return nd
}

// servedScript drives a node through a byte script of trap-table
// operations, three bytes (op, a, b) each, alongside a reference node that
// runs the same operations with the served-sweep prefilter disabled —
// every trapBits bit forced set before each adoptServed, so each record
// entry reaches the trap index as it did before the prefilter existed.
// After every step the two nodes must hold the same live traps, in the same
// order, with the same fields; the index must point at each of them; and
// the prefilter must have the bit of every live trap set. It reports the
// largest number of distinct live trap requesters seen at once, and
// whether the prefilter word was ever saturated (every bit set).
func servedScript(t *testing.T, n int, script []byte) (maxLive int, saturated bool) {
	t.Helper()
	nd, ref := servedNode(t, n), servedNode(t, n)
	rng := uint64(len(script)) + 1
	next := func() uint64 {
		rng += 0x9E3779B97F4A7C15
		z := rng
		z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
		z = (z ^ z>>27) * 0x94D049BB133111EB
		return z ^ z>>31
	}
	for i := 0; i+2 < len(script); i += 3 {
		op, a, b := script[i], int(script[i+1]), int(script[i+2])
		requester := (a<<8 | b) % n
		switch op % 6 {
		case 0:
			seq, from := uint64(b%4+1), a%n
			if got, want := nd.addTrap(requester, seq, from, 0), ref.addTrap(requester, seq, from, 0); got != want {
				t.Fatalf("step %d: addTrap(%d) = %v, reference %v", i/3, requester, got, want)
			}
		case 1:
			got, gok := nd.popTrap()
			want, wok := ref.popTrap()
			if got != want || gok != wok {
				t.Fatalf("step %d: popTrap = %+v %v, reference %+v %v", i/3, got, gok, want, wok)
			}
		case 2:
			keep := func(tr trapEntry) bool { return (int(tr.requester)+a)%3 != 0 }
			nd.sweepTraps(keep)
			ref.sweepTraps(keep)
		case 3:
			// A record mixing live trap requesters (served before, at or
			// after their trap's sequence) with arbitrary ones.
			recs := make([]ServedRec, (a<<1|b&1)%513)
			live := nd.traps[nd.trapHead:]
			for j := range recs {
				r := next()
				if len(live) > 0 && r&1 == 0 {
					tr := live[int(r>>1)%len(live)]
					recs[j] = ServedRec{Requester: int(tr.requester), ReqSeq: tr.reqSeq + r>>8%3 - 1}
				} else {
					recs[j] = ServedRec{Requester: int(r>>1) % n, ReqSeq: r >> 8 % 5}
				}
			}
			nd.adoptServed(recs)
			ref.trapBits = ^uint64(0)
			ref.adoptServed(recs)
		case 4:
			// A burst of requesters, far more than the prefilter word
			// has bits.
			stride := 2*b + 1
			for k := 0; k < 256; k++ {
				r := (a + k*stride) % n
				nd.addTrap(r, 1, r, 0)
				ref.addTrap(r, 1, r, 0)
			}
		case 5:
			got, gok := nd.removeTrap(requester)
			want, wok := ref.removeTrap(requester)
			if got != want || gok != wok {
				t.Fatalf("step %d: removeTrap(%d) = %+v %v, reference %+v %v", i/3, requester, got, gok, want, wok)
			}
		}
		got, want := nd.traps[nd.trapHead:], ref.traps[ref.trapHead:]
		if len(got) != len(want) {
			t.Fatalf("step %d (op %d): %d live traps, reference %d", i/3, op%6, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("step %d (op %d): trap %d = %+v, reference %+v", i/3, op%6, j, got[j], want[j])
			}
			r := int(got[j].requester)
			if k, ok := nd.trapAt.get(r); !ok || k != nd.trapHead+j {
				t.Fatalf("step %d: index of requester %d = %d %v, want %d", i/3, r, k, ok, nd.trapHead+j)
			}
			if nd.trapBits&trapBit(r) == 0 {
				t.Fatalf("step %d: prefilter %#x lacks the bit of live trap %d", i/3, nd.trapBits, r)
			}
		}
		if len(got) > maxLive {
			maxLive = len(got)
		}
		if nd.trapBits == ^uint64(0) {
			saturated = true
		}
	}
	return maxLive, saturated
}

// servedSizes are the two trap-index layouts: a dense array (N <= 4096)
// and a map.
var servedSizes = []int{1000, denseTrapIndex + 904}

// FuzzAdoptServed checks that the served-sweep prefilter changes nothing:
// random addTrap, popTrap, sweepTraps, removeTrap and adoptServed
// sequences, on a dense-index and a map-index node, leave exactly the
// traps the unfiltered sweep leaves.
func FuzzAdoptServed(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 5, 0, 0, 9, 3, 0, 4, 1, 0, 0, 3, 255, 255})
	f.Add([]byte{0, 1, 2, 0, 3, 4, 0, 5, 6, 3, 10, 1, 2, 1, 0, 1, 0, 0})
	f.Add([]byte{4, 3, 1, 3, 200, 1, 1, 0, 0, 5, 0, 3, 2, 2, 0, 3, 255, 0})
	f.Add([]byte{0, 0, 5, 0, 0, 9, 5, 0, 5, 3, 255, 255})
	f.Add([]byte{4, 0, 0, 4, 100, 7, 3, 255, 1, 3, 128, 0, 1, 0, 0, 4, 9, 2, 3, 200, 1})
	f.Fuzz(func(t *testing.T, script []byte) {
		for _, n := range servedSizes {
			servedScript(t, n, script)
		}
	})
}

// TestAdoptServedSaturatedPrefilter runs the equivalence check with more
// than 64 distinct live requesters, where every bit of the prefilter is
// set and it must pass every record entry through.
func TestAdoptServedSaturatedPrefilter(t *testing.T) {
	script := []byte{4, 0, 0, 4, 100, 7, 3, 255, 1, 3, 128, 0, 1, 0, 0, 4, 9, 2, 3, 200, 1, 2, 1, 0, 3, 77, 1}
	for _, n := range servedSizes {
		live, saturated := servedScript(t, n, script)
		if live <= 64 || !saturated {
			t.Errorf("N=%d: at most %d live traps, saturated=%v; want > 64 and a saturated prefilter", n, live, saturated)
		}
	}
}

// BenchmarkAdoptServed measures one token arrival's served sweep: a full
// 512-entry record against a node holding 1, 4 or 64 traps, on a ring
// small enough for the dense trap index (N=1000) and one above it
// (N=16384, the map index). The record names every trap's requester at a
// sequence older than the trap's, so the sweep looks each of them up and
// drops nothing — the steady state of a busy ring — and the rest of the
// record names requesters with no trap here.
func BenchmarkAdoptServed(b *testing.B) {
	const served = 512
	for _, n := range []int{1000, 16384} {
		for _, traps := range []int{1, 4, 64} {
			b.Run(fmt.Sprintf("N=%d/traps=%d", n, traps), func(b *testing.B) {
				nd := servedNode(b, n)
				trapped := make(map[int]bool, traps)
				recs := make([]ServedRec, 0, served)
				for k := 0; k < traps; k++ {
					r := 1 + k*(n/traps-1)
					nd.addTrap(r, 2, r, 0)
					trapped[r] = true
					recs = append(recs, ServedRec{Requester: r, ReqSeq: 1})
				}
				for r := 1; len(recs) < served; r += 3 {
					if !trapped[r%n] {
						recs = append(recs, ServedRec{Requester: r % n, ReqSeq: 5})
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					nd.adoptServed(recs)
				}
				if nd.TrapCount() != traps {
					b.Fatalf("sweep dropped traps: %d left of %d", nd.TrapCount(), traps)
				}
			})
		}
	}
}
