package timetravel

// SeekFirst finds the first cycle at which pred becomes true and returns a
// clean Seek to it. pred must be monotone over the recording (false, then
// true forever — watchpoint-hit counts, sentinel tampering, broken
// invariants all qualify) and must only read the Inspector, never run it.
//
// The search binary-searches the checkpoint ring for the first checkpoint
// where pred already holds, then replays the preceding window boundary by
// boundary in a scratch system until pred flips. The scratch replay's trace
// stream carries per-boundary budget noise, so a pred that inspects trace
// events should look at state (memory, metrics, watch hits) instead; the
// Inspector returned at the end comes from a clean Seek and has no such
// noise.
func (d *Debugger) SeekFirst(pred func(*Inspector) bool) (*Inspector, error) {
	if !d.recorded {
		return nil, ErrNotRecorded
	}
	// Binary search: first ring index whose checkpoint state satisfies pred.
	lo, hi := 0, len(d.ring)
	for lo < hi {
		mid := (lo + hi) / 2
		truth, err := d.predAt(d.ring[mid].cycle, pred)
		if err != nil {
			return nil, err
		}
		if truth {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	// The flip lies in (base just before ring[lo], ring[lo].cycle] — or, when
	// pred holds at no checkpoint, in (newest base, end of recording].
	stop := d.end
	if lo < len(d.ring) {
		stop = d.ring[lo].cycle
	}
	scanStart := stop
	if scanStart > 0 {
		scanStart-- // start strictly before the first-true checkpoint
	}
	sys, base, fromRing, err := d.seekBase(scanStart, false)
	if err != nil {
		return nil, err
	}
	insp := newInspector(sys, base, base, fromRing)
	m := sys.Machine()
	for !pred(insp) {
		cur := m.Cycles()
		if cur >= d.end {
			return nil, ErrPredicate
		}
		if err := sys.Run(cur + 1); err != nil {
			return nil, err
		}
		if m.Cycles() == cur {
			// The workload ended (all tasks done or machine halted) before
			// pred ever flipped.
			return nil, ErrPredicate
		}
	}
	return d.Seek(m.Cycles())
}

// predAt evaluates pred over the checkpoint state at cycle (a ring capture
// cycle) without replaying past it.
func (d *Debugger) predAt(cycle uint64, pred func(*Inspector) bool) (bool, error) {
	sys, base, fromRing, err := d.seekBase(cycle, false)
	if err != nil {
		return false, err
	}
	return pred(newInspector(sys, cycle, base, fromRing)), nil
}
