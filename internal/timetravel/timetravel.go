// Package timetravel is a deterministic time-travel debug layer over the
// simulator: it records one run while arming a ring of periodic checkpoints
// (checkpoint entries on the machine's deadline queue and the snapshot v2 wire
// format), then serves Seek(cycle) by restoring the nearest prior checkpoint
// into a fresh system and re-executing in checked mode to the exact cycle.
// The landed state is byte-identical to a straight checked run to that cycle
// — machine, kernel, and every attached observer — so an Inspector over it
// reads the truth, not an approximation. SeekFirst bisects the checkpoint
// ring and replays to find the first cycle a monotone predicate becomes
// true (watchpoint hit, sentinel tamper, invariant break).
//
// Everything rides existing determinism guarantees: checkpoints fire only at
// run-loop boundaries the run reaches anyway, so arming the ring never
// perturbs the recorded trajectory.
package timetravel

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/mcu"
	"repro/internal/snapshot"
)

// Sentinel errors callers can branch on.
var (
	// ErrNotRecorded: Seek/SeekFirst before Record.
	ErrNotRecorded = errors.New("timetravel: no run recorded yet")
	// ErrPastEnd: the requested cycle is beyond the recorded run.
	ErrPastEnd = errors.New("timetravel: seek past the end of the recording")
	// ErrPredicate: SeekFirst's predicate never became true in the recording.
	ErrPredicate = errors.New("timetravel: predicate never becomes true in the recording")
)

// Config sizes the checkpoint ring and hooks replay setup.
type Config struct {
	// Checkpoints is the ring capacity N: the newest N checkpoints are kept,
	// older ones are evicted (seeks before the oldest fall back to a replay
	// from boot). Default 8.
	Checkpoints int
	// Every is the nominal cycle spacing between checkpoints — the knob of
	// the seek cost model: expected checked-replay distance is Every/2.
	// Default 1<<20.
	Every uint64
	// Rearm, when non-nil, runs right after Boot on the recorded run and on
	// every boot-based replay. Use it to re-arm deterministic external
	// stimuli — fault injections — so replays retrace the recorded
	// trajectory. Checkpoint-based replays never need it: an armed injector
	// is unserializable, so the ring only holds post-injection states (the
	// ring skips refused captures and re-arms past them).
	Rearm func(*core.System)
}

// ringEntry is one retained checkpoint: the decoded state for in-process
// seeks plus its snapshot v2 wire bytes, kept so seeks can also start from
// the serialized form (and so the bytes path stays continuously exercised).
type ringEntry struct {
	cycle uint64 // boundary clock the capture actually fired at
	st    *snapshot.State
	blob  []byte
}

// Debugger records one run of a factory-built system and serves seeks into
// it. The factory must build identically-shaped systems on every call — same
// options, same observers, same programs in the same order — because seeks
// restore recorded state into fresh factory builds.
type Debugger struct {
	build func() (*core.System, error)
	cfg   Config

	sys      *core.System // the recorded primary (image parent for replays)
	ring     []ringEntry  // ascending capture cycles, len <= cfg.Checkpoints
	evicted  int
	skipped  int // captures refused (armed injector) and re-armed past
	end      uint64
	recorded bool
	fail     error // first checkpoint capture/encode failure
}

// New builds a Debugger over the factory. The factory is called once per
// Record/Seek/SeekFirst probe; it must be deterministic.
func New(build func() (*core.System, error), cfg Config) (*Debugger, error) {
	if build == nil {
		return nil, errors.New("timetravel: nil system factory")
	}
	if cfg.Checkpoints <= 0 {
		cfg.Checkpoints = 8
	}
	if cfg.Every == 0 {
		cfg.Every = 1 << 20
	}
	return &Debugger{build: build, cfg: cfg}, nil
}

// Record boots a factory system and runs it to completion (or the cycle
// limit; 0 = none), arming the checkpoint ring along the way. It must be
// called exactly once, before any seek.
func (d *Debugger) Record(limit uint64) error {
	if d.recorded {
		return errors.New("timetravel: run already recorded")
	}
	sys, err := d.build()
	if err != nil {
		return err
	}
	d.sys = sys
	if err := sys.Boot(); err != nil {
		return err
	}
	if d.cfg.Rearm != nil {
		d.cfg.Rearm(sys)
	}
	d.armNext(sys.Machine().Cycles() + d.cfg.Every)
	runErr := sys.Run(limit)
	sys.Machine().Cancel(mcu.HookCheckpoint) // drop a not-yet-fired slot
	d.end = sys.Machine().Cycles()
	d.recorded = true
	if runErr != nil {
		return runErr
	}
	return d.fail
}

// armNext arms the ring's next checkpoint at nominal cycle at; each capture
// arms the one after it.
func (d *Debugger) armNext(at uint64) {
	d.sys.ArmCheckpoint(at, func(st *snapshot.State, err error) {
		next := at + d.cfg.Every
		if now := d.sys.Machine().Cycles(); next <= now {
			// The boundary overshot past the next nominal slot (a long
			// horizon or trap window); keep the spacing honest from here.
			next = now + 1
		}
		switch {
		case errors.Is(err, mcu.ErrArmedInjector):
			// A pending injection is an unserializable side effect: skip
			// this slot and try again once it has fired.
			d.skipped++
		case err != nil:
			d.fail = err
			return // stop arming: every later capture would fail the same way
		default:
			blob, eerr := snapshot.Encode(st)
			if eerr != nil {
				d.fail = eerr
				return
			}
			d.push(ringEntry{cycle: st.Machine.Cycle, st: st, blob: blob})
		}
		d.armNext(next)
	})
}

// push appends a checkpoint, evicting the oldest beyond the ring capacity.
func (d *Debugger) push(e ringEntry) {
	d.ring = append(d.ring, e)
	if len(d.ring) > d.cfg.Checkpoints {
		d.ring[0] = ringEntry{}
		d.ring = d.ring[1:]
		d.evicted++
	}
}

// End returns the recorded run's final cycle clock.
func (d *Debugger) End() uint64 { return d.end }

// Recorded returns the recorded primary system (nil before Record). Treat it
// as read-only: it is the image parent every replay adopts flash from, and
// its artifact streams — trace, metrics, telemetry, energy — are the
// recording's ground truth.
func (d *Debugger) Recorded() *core.System { return d.sys }

// Checkpoints returns the capture cycles currently held in the ring,
// ascending.
func (d *Debugger) Checkpoints() []uint64 {
	out := make([]uint64, len(d.ring))
	for i, e := range d.ring {
		out[i] = e.cycle
	}
	return out
}

// Evicted returns how many checkpoints aged out of the ring.
func (d *Debugger) Evicted() int { return d.evicted }

// Skipped returns how many checkpoint slots were refused (armed injector)
// and re-armed past.
func (d *Debugger) Skipped() int { return d.skipped }

// nearest returns the newest ring entry at or before cycle, or nil.
func (d *Debugger) nearest(cycle uint64) *ringEntry {
	for i := len(d.ring) - 1; i >= 0; i-- {
		if d.ring[i].cycle <= cycle {
			return &d.ring[i]
		}
	}
	return nil
}

// Seek lands a fresh system on the first instruction boundary at or past
// cycle and returns an Inspector over it. It restores the nearest prior ring
// checkpoint (falling back to a replay from boot) and re-executes in checked
// mode; the landed state — machine, kernel, and every observer stream — is
// byte-identical to a straight checked run to the same cycle.
func (d *Debugger) Seek(cycle uint64) (*Inspector, error) { return d.seek(cycle, false) }

// SeekBytes is Seek, but restores from the checkpoint's snapshot v2 wire
// bytes instead of the retained in-memory state — the path a disk- or
// network-backed ring would take.
func (d *Debugger) SeekBytes(cycle uint64) (*Inspector, error) { return d.seek(cycle, true) }

func (d *Debugger) seek(cycle uint64, fromBytes bool) (*Inspector, error) {
	if !d.recorded {
		return nil, ErrNotRecorded
	}
	if cycle > d.end {
		return nil, fmt.Errorf("%w: cycle %d, recording ends at %d", ErrPastEnd, cycle, d.end)
	}
	sys, base, fromRing, err := d.seekBase(cycle, fromBytes)
	if err != nil {
		return nil, err
	}
	// One Run call, exactly like the straight reference run: even when the
	// base already sits at (or past) the requested cycle the call is made,
	// because the reference run's kernel.Run stamps a budget event into an
	// attached trace on exit and byte-identity includes that stamp. The only
	// exception is cycle 0, where Run's limit of 0 would mean "no limit":
	// Seek(0) is defined as the boot state, unstamped.
	if cycle > 0 {
		if err := sys.Run(cycle); err != nil {
			return nil, err
		}
	}
	return &Inspector{sys: sys, seekTo: cycle, base: base, fromRing: fromRing}, nil
}

// seekBase builds a fresh system positioned at the best starting point for a
// replay to cycle: restored from the nearest prior checkpoint, or booted
// (with Rearm) when none is retained. The system is left in checked mode.
func (d *Debugger) seekBase(cycle uint64, fromBytes bool) (sys *core.System, base uint64, fromRing bool, err error) {
	sys, err = d.build()
	if err != nil {
		return nil, 0, false, err
	}
	sys.AdoptImage(d.sys)
	if e := d.nearest(cycle); e != nil {
		st := e.st
		if fromBytes {
			if st, err = snapshot.Decode(e.blob); err != nil {
				return nil, 0, false, err
			}
		}
		if err := sys.Restore(st); err != nil {
			return nil, 0, false, err
		}
		base, fromRing = e.cycle, true
	} else {
		if err := sys.Boot(); err != nil {
			return nil, 0, false, err
		}
		if d.cfg.Rearm != nil {
			d.cfg.Rearm(sys)
		}
		base = sys.Machine().Cycles()
	}
	sys.Machine().SetStepwise(true)
	return sys, base, fromRing, nil
}
