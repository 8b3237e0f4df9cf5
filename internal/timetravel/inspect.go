package timetravel

import (
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/kernel"
	"repro/internal/mcu"
	"repro/internal/profile"
	"repro/internal/trace"
)

// Inspector is a read-only view over a landed seek: the system underneath is
// byte-identical to a straight checked run to the seek cycle, so everything
// here — registers, stacks, metrics, energy — is ground truth for that
// cycle, not a reconstruction.
type Inspector struct {
	sys      *core.System
	seekTo   uint64
	base     uint64
	fromRing bool
}

// newInspector wraps a landed system and leaves it in checked mode, so its
// state — the Stepwise flag included — matches a straight checked run's, and
// a caller (or SeekFirst's boundary-by-boundary window) that runs it further
// steps one instruction at a time.
func newInspector(sys *core.System, seekTo, base uint64, fromRing bool) *Inspector {
	sys.Machine().SetStepwise(true)
	return &Inspector{sys: sys, seekTo: seekTo, base: base, fromRing: fromRing}
}

// System exposes the landed system (read it, don't run it — running moves
// the Inspector off its cycle).
func (in *Inspector) System() *core.System { return in.sys }

// Cycle returns the landed cycle clock: the first instruction boundary at or
// past the requested seek cycle.
func (in *Inspector) Cycle() uint64 { return in.sys.Machine().Cycles() }

// Requested returns the cycle the seek asked for.
func (in *Inspector) Requested() uint64 { return in.seekTo }

// Base returns where the replay started: a ring checkpoint's capture cycle
// (fromRing true) or the boot clock of a replay from scratch.
func (in *Inspector) Base() (cycle uint64, fromRing bool) { return in.base, in.fromRing }

// PC returns the landed program counter (flash word address).
func (in *Inspector) PC() uint32 { return in.sys.Machine().PC() }

// PCSymbol renders the landed PC through the kernel's symbolizer.
func (in *Inspector) PCSymbol() string { return in.sys.Kernel().Symbolizer().Name(in.PC()) }

// Registers returns the 32 CPU registers.
func (in *Inspector) Registers() [32]byte {
	var r [32]byte
	for i := range r {
		r[i] = in.sys.Machine().Reg(uint8(i))
	}
	return r
}

// SREG returns the status register.
func (in *Inspector) SREG() byte { return in.sys.Machine().SREG() }

// SP returns the live (physical) stack pointer.
func (in *Inspector) SP() uint16 { return in.sys.Machine().SP() }

// Current returns the task holding the CPU at the landed cycle, or nil.
func (in *Inspector) Current() *kernel.Task { return in.sys.Kernel().Current() }

// Mem reads n bytes of physical data memory starting at addr.
func (in *Inspector) Mem(addr uint16, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = in.sys.Machine().Peek(addr + uint16(i))
	}
	return out
}

// Metrics snapshots the kernel's per-task and per-service cycle accounting
// at the landed cycle.
func (in *Inspector) Metrics() *trace.Metrics { return in.sys.Metrics() }

// Energy returns the energy ledger's breakdown up to the landed cycle; ok is
// false when the factory attached no meter.
func (in *Inspector) Energy() (energy.Breakdown, bool) {
	m := in.sys.Energy()
	if m == nil {
		return energy.Breakdown{}, false
	}
	return m.Report(in.Cycle()), true
}

// Events returns the last n trace events recorded up to the landed cycle
// (all of them when n <= 0); nil when the factory attached no recorder.
func (in *Inspector) Events(n int) []trace.Event {
	r := in.sys.Trace()
	if r == nil {
		return nil
	}
	if n <= 0 || n > r.Len() {
		n = r.Len()
	}
	evs := make([]trace.Event, n)
	for i := range evs {
		evs[i] = r.At(r.Len() - n + i)
	}
	return evs
}

// AddrInfo is a decoded physical data address: which task's region it lands
// in and the logical address that task sees there.
type AddrInfo struct {
	Phys    uint16
	Logical uint16
	Task    *kernel.Task // nil when no task's region covers the address
	Kind    string       // "heap", "stack", or "unmapped"
}

// DecodeAddr decodes a physical address through the kernel task table: the
// owning task (any task, not just the running one) and its logical view.
func (in *Inspector) DecodeAddr(phys uint16) AddrInfo {
	info := AddrInfo{Phys: phys, Logical: phys, Kind: "unmapped"}
	for _, t := range in.sys.Kernel().Tasks {
		if t.State() == kernel.TaskTerminated {
			// A terminated task's region is reclaimed and may be reused.
			continue
		}
		l, ok := t.LogicalAddr(phys)
		if !ok {
			continue
		}
		info.Logical, info.Task = l, t
		if pl, ph, _ := t.Region(); phys >= pl && phys < ph {
			info.Kind = "heap"
		} else {
			info.Kind = "stack"
		}
		return info
	}
	return info
}

// StackEntry is one plausible saved return address found on a stack.
type StackEntry struct {
	Phys    uint16 // physical address of the slot's high byte
	Logical uint16 // the owning task's logical address of that slot
	Target  uint32 // flash word address the saved return points at
	Frame   profile.Frame
}

// Stack walks the running task's live stack for saved return addresses,
// symbolized; max bounds the result (0 = no bound). Like any debugger's
// scan-based backtrace it is a heuristic: pushed register bytes that happen
// to resolve into code show up too, but every real return address is there.
func (in *Inspector) Stack(max int) []StackEntry {
	t := in.Current()
	if t == nil {
		return nil
	}
	_, _, pu := t.Region()
	frames := StackFrames(in.sys.Machine(), in.sys.Kernel().Symbolizer(), in.SP()+1, pu-1, max)
	for i := range frames {
		if l, ok := t.LogicalAddr(frames[i].Phys); ok {
			frames[i].Logical = l
		}
	}
	return frames
}

// StackFrames scans data memory [lo, hi) for plausible saved return
// addresses and symbolizes them. The machine's pushWord leaves the high byte
// at the lower address (hi at SP+1, lo at SP+2 after a call), so the word at
// address a is Peek(a)<<8 | Peek(a+1). A word counts as a frame when the
// symbolizer places it inside a loaded image and outside the shift-table
// data blob; zero words (the overwhelmingly common stack garbage) are
// skipped.
func StackFrames(m *mcu.Machine, sym *profile.Symbolizer, lo, hi uint16, max int) []StackEntry {
	var out []StackEntry
	for a := lo; a+1 <= hi && a >= lo; a++ {
		target := uint32(m.Peek(a))<<8 | uint32(m.Peek(a+1))
		if target == 0 {
			continue
		}
		f := sym.Resolve(target)
		if f.Image == "" || f.Symbol == "<shift-table>" {
			continue
		}
		out = append(out, StackEntry{Phys: a, Logical: a, Target: target, Frame: f})
		if max > 0 && len(out) >= max {
			break
		}
	}
	return out
}
