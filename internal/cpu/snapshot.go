package cpu

// Snapshot/Restore for the SMT core (DESIGN §15). Everything mutable is
// serialized verbatim: per-thread ROB arrays (whole arrays, not just live
// entries — stale slots participate in slot-recycling checks), frontend
// deques, replay lists, the issue queue's dispatch order as (thread, slot)
// pairs, in-flight load lists, and every counter the run loop or stats
// collection reads. The wakeup/select state and live-load counts are derived
// and rebuilt by Restore; reserved words (once readiness memos) are written
// as zero. Configuration and wiring (caches, event queue, warmup targets)
// are not serialized — restore targets a CPU built from an identical Config.

import (
	"fmt"
	"sort"

	"smtdram/internal/cache"
	"smtdram/internal/snap"
	"smtdram/internal/workload"
)

const sectionCPU = 0x53435055 // "CPUS"

func writeInstr(w *snap.Writer, in workload.Instr) {
	w.U8(uint8(in.Kind))
	w.U64(in.PC)
	w.U64(in.Addr)
	w.I64(int64(in.Dep1))
	w.I64(int64(in.Dep2))
	w.I64(int64(in.Lat))
	w.Bool(in.Mispredict)
	w.Bool(in.Taken)
}

func readInstr(r *snap.Reader) workload.Instr {
	return workload.Instr{
		Kind:       workload.Kind(r.U8()),
		PC:         r.U64(),
		Addr:       r.U64(),
		Dep1:       int(r.I64()),
		Dep2:       int(r.I64()),
		Lat:        int(r.I64()),
		Mispredict: r.Bool(),
		Taken:      r.Bool(),
	}
}

func writeCacheMeta(w *snap.Writer, m cache.Meta) {
	w.I64(int64(m.Thread))
	w.Bool(m.Critical)
	w.I64(int64(m.State.Outstanding))
	w.I64(int64(m.State.ROBOccupancy))
	w.I64(int64(m.State.IQOccupancy))
}

func readCacheMeta(r *snap.Reader) cache.Meta {
	m := cache.Meta{Thread: int(r.I64()), Critical: r.Bool()}
	m.State.Outstanding = int(r.I64())
	m.State.ROBOccupancy = int(r.I64())
	m.State.IQOccupancy = int(r.I64())
	return m
}

func writeUop(w *snap.Writer, u *uop) {
	writeInstr(w, u.in)
	w.U64(u.seq)
	w.U64(u.epoch)
	w.U8(u.state)
	w.U64(u.doneAt)
	w.U64(u.issuedAt)
	w.U64(u.dep1)
	w.U64(u.dep2)
	w.U64(0) // reserved: readiness memo
	w.U64(0)
}

func readUop(r *snap.Reader, tid int32) uop {
	u := uop{
		in:       readInstr(r),
		seq:      r.U64(),
		epoch:    r.U64(),
		tid:      tid,
		state:    r.U8(),
		doneAt:   r.U64(),
		issuedAt: r.U64(),
		dep1:     r.U64(),
		dep2:     r.U64(),
		cons:     noLink,
	}
	r.U64() // reserved: readiness memo
	r.U64()
	return u
}

// slotOf is how ROB-internal pointers (issue queue, in-flight loads)
// serialize: any occupant's seq maps to the slot it lives in, so the pair
// (thread, seq%len(rob)) names the pointed-at slot even for poisoned or
// recycled entries.
func slotOf(t *thread, u *uop) uint64 { return u.seq % uint64(len(t.rob)) }

// Snapshot serializes the core's mutable state.
func (c *CPU) Snapshot(w *snap.Writer) error {
	w.Marker(sectionCPU)
	w.U64(c.Cycles)
	w.U64(c.TotalCommitted)
	w.I64(int64(c.rrFetch))
	w.I64(int64(c.rrDispatch))
	w.I64(int64(c.rrCommit))
	w.I64(int64(c.intIQUsed))
	w.I64(int64(c.fpIQUsed))
	w.I64(int64(c.lqUsed))
	w.I64(int64(c.sqUsed))
	w.U64(0) // reserved: issue-scan memo
	w.Bool(false)
	w.Bool(c.wake)
	w.Bool(c.acted)

	// Committed-store deque, head-normalized (live entries only).
	live := c.pendingStores[c.psHead:]
	w.U64(uint64(len(live)))
	for _, s := range live {
		w.U64(s.addr)
		writeCacheMeta(w, s.meta)
	}

	queued := c.queued()
	w.U64(uint64(len(queued)))
	for _, u := range queued {
		t := c.threads[u.tid]
		w.U64(uint64(u.tid))
		w.U64(slotOf(t, u))
	}

	w.U64(uint64(len(c.threads)))
	for _, t := range c.threads {
		w.Bool(t.hasPeeked)
		if t.hasPeeked {
			writeInstr(w, t.peeked)
		}
		w.U64(uint64(len(t.replay)))
		for _, in := range t.replay {
			writeInstr(w, in)
		}
		fe := t.frontend[t.feHead:]
		w.U64(uint64(len(fe)))
		for _, e := range fe {
			writeInstr(w, e.in)
			w.U64(e.readyAt)
		}
		w.U64(uint64(len(t.rob)))
		for i := range t.rob {
			writeUop(w, &t.rob[i])
		}
		w.U64(t.headSeq)
		w.U64(t.nextSeq)
		w.U64(t.epoch)
		w.I64(int64(t.iqInt))
		w.I64(int64(t.iqFP))
		w.I64(int64(t.lq))
		w.I64(int64(t.sq))
		w.U64(t.committed)
		w.U64(0) // reserved: readiness-memo epoch
		w.U64(uint64(len(t.inFlight)))
		for _, u := range t.inFlight {
			w.U64(slotOf(t, u))
		}
		w.U64(t.curILine)
		w.Bool(t.imissPending)
		w.U64(t.fetchBlockedUntil)
		w.U64(t.warmedAt)
		w.U64(t.finishedAt)
		w.U64(t.squashes)
		w.U64(t.loads)
		w.U64(t.stores)
		w.U64(t.imisses)
		w.U64(t.gated)
	}
	return nil
}

// Restore rebuilds the core's mutable state from r into a CPU assembled from
// the identical Config and thread count (instruction sources are restored
// separately by the caller).
func (c *CPU) Restore(r *snap.Reader) error {
	r.Expect(sectionCPU)
	c.Cycles = r.U64()
	c.TotalCommitted = r.U64()
	c.rrFetch = int(r.I64())
	c.rrDispatch = int(r.I64())
	c.rrCommit = int(r.I64())
	c.intIQUsed = int(r.I64())
	c.fpIQUsed = int(r.I64())
	c.lqUsed = int(r.I64())
	c.sqUsed = int(r.I64())
	r.U64() // reserved: issue-scan memo
	r.Bool()
	c.wake = r.Bool()
	c.acted = r.Bool()

	c.pendingStores = c.pendingStores[:0]
	c.psHead = 0
	nPS := r.U64()
	if err := r.Err(); err != nil {
		return err
	}
	for i := uint64(0); i < nPS; i++ {
		c.pendingStores = append(c.pendingStores, pendingStore{addr: r.U64(), meta: readCacheMeta(r)})
	}

	type slotRef struct{ tid, slot uint64 }
	nW := r.U64()
	if err := r.Err(); err != nil {
		return err
	}
	waitRefs := make([]slotRef, nW)
	for i := range waitRefs {
		waitRefs[i] = slotRef{tid: r.U64(), slot: r.U64()}
	}

	nT := r.U64()
	if r.Err() == nil && nT != uint64(len(c.threads)) {
		return fmt.Errorf("%w: snapshot has %d threads, cpu has %d", snap.ErrCorrupt, nT, len(c.threads))
	}
	for _, t := range c.threads {
		t.hasPeeked = r.Bool()
		if t.hasPeeked {
			t.peeked = readInstr(r)
		}
		t.replay = t.replay[:0]
		nRep := r.U64()
		if err := r.Err(); err != nil {
			return err
		}
		for i := uint64(0); i < nRep; i++ {
			t.replay = append(t.replay, readInstr(r))
		}
		t.frontend = t.frontend[:0]
		t.feHead = 0
		nFE := r.U64()
		if err := r.Err(); err != nil {
			return err
		}
		for i := uint64(0); i < nFE; i++ {
			t.frontend = append(t.frontend, feEntry{in: readInstr(r), readyAt: r.U64()})
		}
		nROB := r.U64()
		if r.Err() == nil && nROB != uint64(len(t.rob)) {
			return fmt.Errorf("%w: snapshot ROB depth %d, configured %d", snap.ErrCorrupt, nROB, len(t.rob))
		}
		for i := range t.rob {
			t.rob[i] = readUop(r, int32(t.id))
		}
		t.headSeq = r.U64()
		t.nextSeq = r.U64()
		t.epoch = r.U64()
		t.iqInt = int(r.I64())
		t.iqFP = int(r.I64())
		t.lq = int(r.I64())
		t.sq = int(r.I64())
		t.committed = r.U64()
		r.U64() // reserved: readiness-memo epoch
		t.inFlight = t.inFlight[:0]
		nIF := r.U64()
		if err := r.Err(); err != nil {
			return err
		}
		for i := uint64(0); i < nIF; i++ {
			slot := r.U64()
			if slot >= uint64(len(t.rob)) {
				return fmt.Errorf("%w: in-flight slot %d out of range", snap.ErrCorrupt, slot)
			}
			t.inFlight = append(t.inFlight, &t.rob[slot])
		}
		t.curILine = r.U64()
		t.imissPending = r.Bool()
		t.fetchBlockedUntil = r.U64()
		t.warmedAt = r.U64()
		t.finishedAt = r.U64()
		t.squashes = r.U64()
		t.loads = r.U64()
		t.stores = r.U64()
		t.imisses = r.U64()
		t.gated = r.U64()
	}

	if err := r.Err(); err != nil {
		return err
	}
	// Stamps follow the serialized dispatch order. Older writers may list
	// squashed or issued entries, or a slot twice: a first listing counts.
	c.stamp = 0
	for _, wr := range waitRefs {
		if wr.tid >= uint64(len(c.threads)) {
			return fmt.Errorf("%w: waiting entry thread %d out of range", snap.ErrCorrupt, wr.tid)
		}
		t := c.threads[wr.tid]
		if wr.slot >= uint64(len(t.rob)) {
			return fmt.Errorf("%w: waiting entry slot %d out of range", snap.ErrCorrupt, wr.slot)
		}
		if u := &t.rob[wr.slot]; u.state == stWaiting && u.epoch != ^uint64(0) && u.stamp == 0 {
			c.stamp++
			u.stamp = c.stamp
		}
	}
	c.ready, c.ring, c.ringN, c.drained = c.ready[:0], [ringSize][]wakeRef{}, 0, 0
	for _, t := range c.threads {
		t.liveLoads = 0
		for s := t.headSeq; s < t.nextSeq; s++ {
			u := &t.rob[s%uint64(len(t.rob))]
			switch {
			case u.state == stIssued && u.doneAt == pendingDone:
				t.liveLoads++
			case u.state != stWaiting:
			case u.stamp == 0:
				return fmt.Errorf("%w: thread %d seq %d missing from the issue queue", snap.ErrCorrupt, t.id, s)
			default:
				c.enqueue(t, u)
			}
		}
	}
	return nil
}

// queued lists the issue queue's uops in dispatch order.
func (c *CPU) queued() []*uop {
	var q []*uop
	for _, t := range c.threads {
		for s := t.headSeq; s < t.nextSeq; s++ {
			if u := &t.rob[s%uint64(len(t.rob))]; u.state == stWaiting {
				q = append(q, u)
			}
		}
	}
	sort.Slice(q, func(i, j int) bool { return q[i].stamp < q[j].stamp })
	return q
}

// ResolveRef maps CPU-kind references (pending load fills, I-fills, branch
// resolutions) to carriers drawn from the pools, exactly as the live run
// would have allocated them.
func (c *CPU) ResolveRef(ref *snap.Ref, _ uint8) (any, error) {
	if len(ref.Args) != 3 {
		return nil, fmt.Errorf("%w: cpu ref needs 3 args, got %d", snap.ErrCorrupt, len(ref.Args))
	}
	tid := ref.Args[0]
	if tid >= uint64(len(c.threads)) {
		return nil, fmt.Errorf("%w: cpu ref thread %d out of range", snap.ErrCorrupt, tid)
	}
	t := c.threads[tid]
	switch ref.Kind {
	case snap.KCPULoadFill:
		f := c.getLoadFill()
		f.t, f.seq, f.epoch = t, ref.Args[1], ref.Args[2]
		return f, nil
	case snap.KCPUIFill:
		f := c.getIFill()
		f.t, f.line, f.epoch = t, ref.Args[1], ref.Args[2]
		return f, nil
	case snap.KCPUBranch:
		e := c.getBrEvent()
		e.t, e.seq, e.epoch = t, ref.Args[1], ref.Args[2]
		return e, nil
	default:
		return nil, fmt.Errorf("%w: ref kind %d is not a cpu kind", snap.ErrCorrupt, ref.Kind)
	}
}
