package protocol

// Rotation-GC satisfaction records (§4.4): the token carries the recently
// granted (requester, reqSeq) pairs; any node the token visits drops traps
// whose request was already served, and the holder skips such traps
// entirely instead of bouncing a decorated token off a satisfied node.

// servedCap returns the configured bound on the satisfaction record.
func (n *Node) servedCap() int {
	if n.cfg.ServedCap > 0 {
		return n.cfg.ServedCap
	}
	c := 2 * n.cfg.N
	if c > 512 {
		c = 512
	}
	return c
}

// Satisfaction-record buffer pooling (the token hand-off protocol): the
// record buffer travels with the token message instead of being deep-copied
// at every hop. A buffer is frozen the moment it is shared — handed to an
// outgoing message by servedSnapshot, or adopted from an incoming one by
// adoptServed — and frozen buffers are never mutated: recordServed takes a
// private copy first (ownServed). Any number of aliases (duplicated
// deliveries, observer traces, messages parked at paused nodes) therefore
// read stable bytes, and an idle rotation hop moves the record with zero
// allocation.

// ownServed makes the record privately mutable, copying it if it is still
// aliased by a message buffer.
func (n *Node) ownServed() {
	if !n.servedShared {
		return
	}
	n.served = append([]ServedRec(nil), n.served...)
	n.servedShared = false
}

// recordServed appends a satisfied request to the token's record,
// deduplicating by requester (the freshest sequence wins) and trimming to
// the cap. Only meaningful under rotation GC.
func (n *Node) recordServed(requester int, reqSeq uint64) {
	if n.cfg.TrapGC != GCRotation {
		return
	}
	for i := range n.served {
		if n.served[i].Requester == requester {
			if reqSeq > n.served[i].ReqSeq {
				n.ownServed()
				n.served[i].ReqSeq = reqSeq
			}
			return
		}
	}
	n.ownServed()
	n.served = append(n.served, ServedRec{Requester: requester, ReqSeq: reqSeq})
	if cap := n.servedCap(); len(n.served) > cap {
		n.served = append(n.served[:0], n.served[len(n.served)-cap:]...)
	}
}

// adoptServed takes over the token's satisfaction record (aliasing the
// message's buffer — see the hand-off protocol above) and sweeps satisfied
// traps. The sweep is driven by the record, not the trap table: each rec
// looks its requester up in the O(1) trap index, so a hop with nothing to
// drop costs O(len(recs)) instead of O(traps × recs) — the old nested scan
// was ~20% of fig9 CPU post-PR-6. The trapBits prefilter runs first: a rec
// whose bit is clear has no live trap, so only possible matches pay for
// the index lookup, a map access on rings above denseTrapIndex. Because
// the word only ever over-approximates the live traps, the same traps
// drop, in the same order, as without it (see DESIGN.md §10, "Follow-up:
// the O(1) trap path").
func (n *Node) adoptServed(recs []ServedRec) {
	if n.cfg.TrapGC != GCRotation {
		return
	}
	n.served = recs
	n.servedShared = len(recs) > 0
	if n.trapHead == len(n.traps) {
		return
	}
	dropped := false
	bits := n.trapBits // the loop below never changes it
	for _, rec := range recs {
		if bits&trapBit(rec.Requester) == 0 {
			continue
		}
		if i, ok := n.trapAt.get(rec.Requester); ok && rec.ReqSeq >= n.traps[i].reqSeq {
			n.traps[i].requester = trapServed
			n.trapAt.del(rec.Requester)
			dropped = true
		}
	}
	if dropped {
		n.sweepTraps(func(tr trapEntry) bool { return tr.requester != trapServed })
	}
}

// trapServed marks a trap entry dropped by the adoptServed sweep; it never
// collides with a requester id (>= 0) or None.
const trapServed = -2

// isServed reports whether a trap's request already completed according to
// the satisfaction record.
func (n *Node) isServed(tr trapEntry) bool {
	for _, rec := range n.served {
		if rec.Requester == int(tr.requester) && rec.ReqSeq >= tr.reqSeq {
			return true
		}
	}
	return false
}

// servedSnapshot returns the record to stamp on an outgoing token message.
// The returned slice aliases the node's buffer; handing it out freezes the
// buffer (the next local mutation copies first), so the wire never sees a
// record change after send.
func (n *Node) servedSnapshot() []ServedRec {
	if n.cfg.TrapGC != GCRotation || len(n.served) == 0 {
		return nil
	}
	n.servedShared = true
	return n.served
}
