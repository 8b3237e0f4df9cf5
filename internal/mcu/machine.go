// Package mcu simulates an ATmega128L-class microcontroller — the MICA2
// mote's CPU — with cycle accounting faithful to the data sheet. It executes
// the AVR subset defined in internal/avr, models the mote devices the
// SenSmart evaluation needs (Timer0, the kernel-reserved Timer3, ADC, UART,
// a byte-timed radio), and exposes the hooks the SenSmart kernel runtime
// attaches to: a KTRAP handler and a per-task memory guard.
package mcu

import (
	"fmt"
	"sync"

	"repro/internal/avr"
	"repro/internal/energy"
	"repro/internal/trace"
)

// Memory geometry and clock rate of the simulated MICA2 node.
const (
	// FlashWords is the program memory size in 16-bit words (128 KB).
	FlashWords = 1 << 16
	// DataSize is the data address space: 32 registers + 224 I/O bytes +
	// 4 KB SRAM, addresses 0x0000..0x10FF.
	DataSize = 0x1100
	// SRAMBase is the first general-purpose SRAM address.
	SRAMBase = 0x0100
	// IOBase is the data-space address of I/O register 0.
	IOBase = 0x20
	// ClockHz is the MICA2 CPU clock (7.3728 MHz).
	ClockHz = 7372800
)

// Data-space addresses of the core registers.
const (
	addrSPL  = 0x5D
	addrSPH  = 0x5E
	addrSREG = 0x5F
)

// Interrupt vector word addresses (our simulated part's layout; 2 words per
// vector so a JMP fits).
const (
	VecReset    = 0
	VecTimer0   = 2
	VecADC      = 4
	VecUART     = 6
	VecRadioRx  = 8
	VecTableEnd = 10
)

// Interrupt source bits for the pending mask.
const (
	intTimer0 = 1 << iota
	intADC
	intUART
	intRadioRx
)

// TrapHandler is invoked when execution reaches a KTRAP instruction. The
// handler owns the machine during the call: it must set the next PC and
// charge any kernel cycles. Returning an error halts the machine.
type TrapHandler func(m *Machine, id uint16) error

// Machine is one simulated node. The zero value is not usable; call New.
type Machine struct {
	// flash is held behind a pointer so machines restored from a snapshot
	// can share the parent's immutable program image (AdoptImage).
	// flashShared marks a shared array: any writer copies it first.
	// adoptMu serializes AdoptImage calls against this machine as the
	// parent, so many children can fan out of one warm parent concurrently.
	flash       *[FlashWords]uint16
	flashShared bool
	adoptMu     sync.Mutex

	data  [DataSize]byte
	pc    uint32
	cycle uint64
	idle  uint64 // cycles spent sleeping, for CPU-utilization accounting

	sleeping bool
	fault    *Fault
	pending  uint8  // pending interrupt sources
	insts    uint64 // instructions executed since reset (host-MIPS metric)

	// stepwise forces Run/RunUntil onto the fully-checked per-instruction
	// Step path, disabling the event-horizon fast loop (bench comparator).
	stepwise bool

	trap TrapHandler

	// rec, when non-nil, receives cycle-stamped machine events (interrupt
	// delivery, idle advances, halts, budget expiry). The nil state is the
	// disabled state: every emission site is a single pointer comparison.
	rec *trace.Recorder

	// prof holds the per-instruction observers (internal/profile), each
	// nil-disabled like rec: with no profiler attached every site is one
	// pointer comparison.
	prof ProfileHooks

	// hooks is the deadline queue (hooks.go), in arm order. hookAt caches
	// the earliest at (noEvent when empty), so a run-loop iteration with
	// nothing due costs one comparison.
	hooks  []hook
	hookAt uint64

	// horizon is min(dev.nextEvent, hookAt): the first cycle at which the
	// fast loop and fused blocks must hand control back to the outer run
	// loop, so a device event and a hook deadline cost one comparison per
	// instruction between them. syncHorizon refreshes it wherever either
	// input moves.
	horizon uint64

	// Native-access memory guard (the kernel's isolation backstop for
	// unpatched SP-relative accesses). Zero values disable it.
	guardLo, guardHi uint16
	guardOn          bool

	dev devices

	// Micro-op cache: code is immutable while running (the paper's
	// no-self-modification assumption), so each flash word predecodes once
	// into an executable uop (see dispatch.go). An entry whose in.Op is
	// OpInvalid (the zero value) has not been built or was invalidated —
	// the validity check rides on the same cache line as the entry itself.
	// The slice covers the loaded code extent, not the whole address space:
	// the first fill sizes it to codeEnd, and a pc beyond its end grows it
	// (ownUops), so a word past the end reads as not built. The
	// pointer-free uop keeps the entries out of garbage-collector scans.
	uops []uop
	// uopsShared marks a micro-op cache shared with another machine via
	// AdoptImage: a machine that needs to fill or flush entries copies (or
	// drops) the slice first, so concurrently running machines never write
	// a shared array.
	uopsShared bool
	codeEnd    uint32 // highest loaded word + 1: the cache's first size

	// xl, when non-nil, is the basic-block superinstruction translator
	// (translate.go): hot straight-line runs between control transfers
	// execute as fused blocks with one horizon check per block. Only the
	// event-horizon fast loop dispatches blocks — the checked Step path
	// never does — and the block cache is derived state, invalidated on
	// the same paths as the micro-op cache. Nil disables translation.
	xl *translator

	// meter, when non-nil, is the energy charge ledger (internal/energy).
	// Nil-disabled like rec and the profiler hooks, and fed only at device
	// power-state transitions (writeIO span starts, prescaler changes,
	// sleep advances) — never on the per-instruction path — so an attached
	// meter adds no work to the fast loop and a detached one costs one
	// pointer comparison per transition.
	meter *energy.Meter

	// hookSeq counts Arm calls, the next hook.seq. Only arming and firing
	// read it, so it sits apart from the fields the run loop tests.
	hookSeq uint64
}

// New returns a reset machine with empty flash.
func New() *Machine {
	m := &Machine{
		flash: new([FlashWords]uint16),
		xl:    newTranslator(DefaultTranslationThreshold),
	}
	m.Reset()
	return m
}

// ownFlash copies a shared flash array before the first write to it.
func (m *Machine) ownFlash() {
	if m.flashShared {
		f := new([FlashWords]uint16)
		*f = *m.flash
		m.flash = f
		m.flashShared = false
	}
}

// ownUops makes the micro-op cache writable at word pc: a shared cache is
// copied before the first write to it, and one that ends at or before pc
// grows to cover it and at least the loaded code extent.
func (m *Machine) ownUops(pc uint32) {
	n := len(m.uops)
	if !m.uopsShared && int(pc) < n {
		return
	}
	if int(pc) >= n {
		n = extent(n, max(pc+1, m.codeEnd))
	}
	u := make([]uop, n)
	copy(u, m.uops)
	m.uops = u
	m.uopsShared = false
}

// extent returns the length a per-word cache of length n grows to so that
// it holds need words: at least double, in whole pages, capped at the flash
// size. Doubling keeps a pc walking past the end (a NOP sled through empty
// flash) from regrowing on every page.
func extent(n int, need uint32) int {
	want := (int(need) + pageWords - 1) / pageWords * pageWords
	return min(max(want, 2*n), FlashWords)
}

// AdoptImage shares parent's flash and predecoded micro-op cache with m,
// copy-on-write: both machines keep executing from the same arrays until one
// of them writes (LoadFlash, a cache fill, SetTrapHandler), at which point
// the writer copies its own private array first. The parent must be
// quiescent (not inside Run/Step), but many children may adopt the same
// parent from different goroutines — adopters serialize on the parent's
// mutex, and after adoption the shared arrays are only ever read. The caller
// is responsible for m's flash contents matching parent's — RestoreState's
// image hash enforces this on the snapshot path.
func (m *Machine) AdoptImage(parent *Machine) {
	parent.adoptMu.Lock()
	defer parent.adoptMu.Unlock()
	m.flash = parent.flash
	m.uops = parent.uops
	m.codeEnd = parent.codeEnd
	m.flashShared, m.uopsShared = true, true
	parent.flashShared, parent.uopsShared = true, true
	// Translated blocks fuse decoded flash contents; any the adopter built
	// against its previous image are stale now. The parent's blocks stay:
	// its image is unchanged (and the translator is never shared).
	if m.xl != nil {
		m.xl.reset()
	}
}

// Reset clears CPU and device state but leaves flash contents alone.
func (m *Machine) Reset() {
	m.data = [DataSize]byte{}
	m.pc = 0
	m.cycle = 0
	m.idle = 0
	m.insts = 0
	m.sleeping = false
	m.fault = nil
	m.pending = 0
	m.guardOn = false
	m.Cancel(HookInject)
	m.dev.reset()
	m.syncHorizon()
	m.SetSP(DataSize - 1)
}

// LoadFlash copies words into program memory starting at word address base.
func (m *Machine) LoadFlash(base uint32, words []uint16) error {
	if int(base)+len(words) > FlashWords {
		return fmt.Errorf("mcu: flash overflow: base %#x + %d words", base, len(words))
	}
	m.ownFlash()
	copy(m.flash[base:], words)
	// Drop the cached entries for the patched words, and for base-1: a
	// cached 32-bit instruction starting there holds the old word at base as
	// its operand word. Words past the cache's end hold no entry.
	lo := max(int(base)-1, 0)
	if hi := min(int(base)+len(words), len(m.uops)); lo < hi {
		m.ownUops(uint32(lo))
		clear(m.uops[lo:hi])
	}
	// Translated blocks fuse decoded words the same way; kill every block
	// overlapping the patched range (a block's [leader, end) span covers
	// operand words, so the base-1 case above is covered by overlap).
	if m.xl != nil {
		m.xl.invalidate(base, base+uint32(len(words)))
	}
	if end := base + uint32(len(words)); end > m.codeEnd {
		m.codeEnd = end
	}
	return nil
}

// FlashWord returns the program-memory word at addr.
func (m *Machine) FlashWord(addr uint32) uint16 { return m.flash[addr&(FlashWords-1)] }

// SetTrapHandler installs the kernel's KTRAP entry point. Without a handler
// BREAK decodes as plain BREAK; with one, BREAK plus its following id word
// decodes as KTRAP (the micro-op cache is flushed to apply the change).
func (m *Machine) SetTrapHandler(h TrapHandler) {
	m.trap = h
	if m.xl != nil {
		// Blocks fused under the old KTRAP decode rule are stale.
		m.xl.reset()
	}
	if m.uopsShared {
		// The flush would clobber the other sharer's cache; drop it instead
		// of copying one we are about to clear. The next fill allocates.
		m.uops = nil
		m.uopsShared = false
		return
	}
	clear(m.uops)
}

// SetRecorder attaches (or, with nil, detaches) the trace recorder the
// machine stamps events into. The kernel shares one recorder between the
// machine and itself so the merged stream is globally cycle-ordered.
func (m *Machine) SetRecorder(r *trace.Recorder) { m.rec = r }

// SetEnergyMeter attaches (or, with nil, detaches) the energy charge
// ledger. Attach before the first cycle: the meter derives CPU-active
// cycles from the clock minus its accrued sleep cycles, so a meter that
// missed part of the run would over-attribute active energy.
func (m *Machine) SetEnergyMeter(e *energy.Meter) { m.meter = e }

// EnergyMeter returns the attached energy meter, or nil.
func (m *Machine) EnergyMeter() *energy.Meter { return m.meter }

// powerEvent emits a KindPower transition when both a recorder and a meter
// are attached (unmetered traced runs keep byte-identical streams).
func (m *Machine) powerEvent(device uint64, busy bool) {
	if m.rec == nil || m.meter == nil {
		return
	}
	var b uint64
	if busy {
		b = 1
	}
	m.rec.Emit(trace.Event{Cycle: m.cycle, Kind: trace.KindPower, Task: -1, Arg: device, Arg2: b})
}

// Recorder returns the attached trace recorder, or nil.
func (m *Machine) Recorder() *trace.Recorder { return m.rec }

// ProfileHooks bundles the profiler callbacks SetProfileHooks installs. Any
// field may be nil; nil fields cost one pointer comparison at their site.
type ProfileHooks struct {
	// Instr is called once per executed instruction with the fetch PC, the
	// stack pointer after execution, and the cycles the instruction
	// consumed. For a KTRAP it is called before dispatch with the 1-cycle
	// fetch charge, so the charge lands on the task that reached the trap
	// even when the handler switches tasks.
	Instr func(pc uint32, sp uint16, cycles uint64)
	// Idle is called for each idle advance (AddIdleCycles / sleep).
	Idle func(n uint64)
	// Interrupt is called for each interrupt delivery's cycle charge.
	Interrupt func(n uint64)
	// Mem is called after each successful native SRAM load, store, push or
	// pop with the fetch PC and the physical address. Kernel-mediated
	// accesses (ReadBus/WriteBus) are reported by the kernel itself.
	Mem func(pc uint32, addr uint16, write bool)
}

// SetProfileHooks installs (or, with zero-value hooks, removes) the profiler
// callbacks.
func (m *Machine) SetProfileHooks(h ProfileHooks) { m.prof = h }

// SetGuard arms the native-store guard: SP-relative and other unpatched SRAM
// accesses outside [lo, hi) fault. The kernel re-arms this per context
// switch.
func (m *Machine) SetGuard(lo, hi uint16) { m.guardLo, m.guardHi, m.guardOn = lo, hi, true }

// ClearGuard disables the native-store guard.
func (m *Machine) ClearGuard() { m.guardOn = false }

// PC returns the current program counter (word address).
func (m *Machine) PC() uint32 { return m.pc }

// SetPC sets the program counter (word address).
func (m *Machine) SetPC(pc uint32) { m.pc = pc & (FlashWords - 1) }

// Cycles returns the simulated cycle count since reset.
func (m *Machine) Cycles() uint64 { return m.cycle }

// IdleCycles returns cycles spent asleep, for CPU-utilization accounting.
func (m *Machine) IdleCycles() uint64 { return m.idle }

// AddCycles charges n extra cycles (kernel service overhead).
func (m *Machine) AddCycles(n uint64) { m.cycle += n }

// AddIdleCycles advances time by n cycles marked as idle (kernel idle loop).
func (m *Machine) AddIdleCycles(n uint64) {
	m.cycle += n
	m.idle += n
	if m.rec != nil && n > 0 {
		m.rec.Emit(trace.Event{Cycle: m.cycle, Kind: trace.KindIdle, Task: -1, Arg: n})
	}
	if m.prof.Idle != nil && n > 0 {
		m.prof.Idle(n)
	}
	if m.meter != nil {
		m.meter.SleepCycles(n)
	}
}

// Reg returns register r0..r31.
func (m *Machine) Reg(i uint8) byte { return m.data[i&31] }

// SetReg writes register r0..r31.
func (m *Machine) SetReg(i uint8, v byte) { m.data[i&31] = v }

// RegPair returns the 16-bit pair starting at even register i (X/Y/Z).
func (m *Machine) RegPair(i uint8) uint16 {
	return uint16(m.data[i]) | uint16(m.data[i+1])<<8
}

// SetRegPair writes the 16-bit pair starting at even register i.
func (m *Machine) SetRegPair(i uint8, v uint16) {
	m.data[i] = byte(v)
	m.data[i+1] = byte(v >> 8)
}

// SP returns the hardware stack pointer.
func (m *Machine) SP() uint16 {
	return uint16(m.data[addrSPL]) | uint16(m.data[addrSPH])<<8
}

// SetSP writes the hardware stack pointer.
func (m *Machine) SetSP(sp uint16) {
	m.data[addrSPL] = byte(sp)
	m.data[addrSPH] = byte(sp >> 8)
}

// SREG returns the status register.
func (m *Machine) SREG() byte { return m.data[addrSREG] }

// SetSREG writes the status register.
func (m *Machine) SetSREG(v byte) { m.data[addrSREG] = v }

// Peek reads data memory without device side effects or guard checks
// (kernel/test access).
func (m *Machine) Peek(addr uint16) byte { return m.data[addr%DataSize] }

// Poke writes data memory without device side effects or guard checks
// (kernel/test access).
func (m *Machine) Poke(addr uint16, v byte) { m.data[addr%DataSize] = v }

// CopyData moves n bytes of data memory from src to dst, handling overlap
// (the kernel's stack-relocation memmove).
func (m *Machine) CopyData(dst, src, n uint16) {
	copy(m.data[dst:int(dst)+int(n)], m.data[src:int(src)+int(n)])
}

// Halt stops the machine with FaultHalt and the given note (e.g. "workload
// complete"). Step returns the fault from then on.
func (m *Machine) Halt(note string) {
	if m.fault == nil {
		m.fault = &Fault{Kind: FaultHalt, PC: m.pc, Note: note}
		if m.rec != nil {
			m.rec.Emit(trace.Event{Cycle: m.cycle, Kind: trace.KindHalt, Task: -1, Detail: note})
		}
	}
}

// Halted reports whether the machine has stopped, and why.
func (m *Machine) Halted() (bool, *Fault) { return m.fault != nil, m.fault }

// faultf records and returns a fault.
func (m *Machine) faultf(kind FaultKind, addr uint16, note string) error {
	m.fault = &Fault{Kind: kind, PC: m.pc, Addr: addr, Note: note}
	return m.fault
}

// fetchUop returns the micro-op cache entry at word address pc, predecoding
// the flash word on first execution.
func (m *Machine) fetchUop(pc uint32) (*uop, error) {
	pc &= FlashWords - 1
	if int(pc) >= len(m.uops) || m.uops[pc].in.Op == avr.OpInvalid {
		if err := m.buildUop(pc); err != nil {
			return nil, err
		}
	}
	return &m.uops[pc], nil
}

// fetch returns the decoded instruction at word address pc.
func (m *Machine) fetch(pc uint32) (avr.Inst, error) {
	u, err := m.fetchUop(pc)
	if err != nil {
		return avr.Inst{}, err
	}
	return u.in, nil
}

// InstAt decodes (with caching) the instruction at word address pc. It is
// the public variant of fetch for the kernel's branch-trampoline logic.
func (m *Machine) InstAt(pc uint32) (avr.Inst, error) { return m.fetch(pc) }

// Run executes until the machine faults/halts or until the cycle count
// reaches limit (0 = no limit). It returns nil when the limit stopped it.
func (m *Machine) Run(limit uint64) error {
	if err := m.RunUntil(limit); err != nil {
		return err
	}
	if m.rec != nil {
		m.rec.Emit(trace.Event{Cycle: m.cycle, Kind: trace.KindBudget, Task: -1, Arg: limit})
	}
	return nil
}

// RunUntil is Run without the budget-expiry trace event (the kernel's run
// loop emits its own). Each outer-loop iteration first fires the sample and
// checkpoint deadlines due, then executes the event-horizon fast loop unless
// mustStep sends it to Step: no fault, not sleeping, no pending interrupt,
// no profiler, no entry still due. Inside a horizon — up to the next
// device event, hook deadline or the cycle limit — instructions dispatch
// straight through the micro-op cache with no per-step checks at all; KTRAP
// and SLEEP entries are marked checked and run through one Step so trap
// handlers and the sleep path see exactly the per-Step machine state they
// always did. Because the earliest hook deadline bounds the horizon, every
// engine hands the outer loop the same instruction boundary: the first one
// at or past the deadline. A trace recorder does not force Step: every
// machine event it records is emitted off the per-instruction path, and
// interrupts are only ever delivered by Step.
func (m *Machine) RunUntil(limit uint64) error {
	for limit == 0 || m.cycle < limit {
		if m.cycle >= m.hookAt {
			m.fireDue(false)
		}
		if m.mustStep() {
			if err := m.Step(); err != nil {
				return err
			}
			continue
		}
		if m.cycle >= m.dev.nextEvent {
			m.syncDevices()
			continue
		}
		// Horizon entry is a block-leader point (trap return, post-sleep,
		// post-interrupt resume): give the translator a chance to dispatch
		// fused blocks before the per-op loop. The inlined dead probe skips
		// the call for leaders already proven untranslatable (syscall
		// wrappers starting at a KTRAP, lone branches) — common landing
		// points that would otherwise pay a function call per visit.
		// runTranslated only runs a block whose worst case fits strictly
		// inside the horizon and cycle budget, so afterwards the clock is
		// still short of both; the re-check is defensive.
		if m.xl != nil && !m.xl.dead(m.pc) {
			halt, err := m.runTranslated(limit)
			if err != nil {
				return err
			}
			if halt || m.cycle >= m.horizon || (limit != 0 && m.cycle >= limit) {
				continue
			}
		}
		// Fast loop. Within the horizon nothing can set pending (syncDevices
		// only runs once cycle reaches nextEvent, and I/O side effects that
		// reschedule events move the horizon re-checked below), so no
		// per-instruction interrupt or device check is needed. A checked uop
		// (KTRAP, SLEEP) executes exactly as Step would — the ladder Step
		// runs first is all no-ops here — but the loop breaks afterwards so
		// the fault/sleep/pending state the handler may have left behind is
		// re-examined before the next instruction.
		for {
			pc := m.pc & (FlashWords - 1)
			var u *uop
			if uops := m.uops; int(pc) < len(uops) && uops[pc].in.Op != avr.OpInvalid {
				u = &uops[pc]
			} else {
				if err := m.buildUop(pc); err != nil {
					return m.faultf(FaultBadInst, 0, err.Error())
				}
				// buildUop may have copied or grown the cache (copy-on-write
				// or a pc past its end); point at the live slice.
				u = &m.uops[pc]
			}
			m.insts++
			// Direct calls for the hottest opcodes (measured over the kernel
			// benchmark suite these cover >95% of natively executed
			// instructions). A direct call is predictable and lets the
			// compiler inline the small handlers; everything else goes
			// through the dispatch table exactly as before.
			var err error
			switch u.in.Op {
			case avr.OpIn:
				err = execIn(m, u)
			case avr.OpSbrs:
				err = execSbrs(m, u)
			case avr.OpDec:
				err = execDec(m, u)
			case avr.OpAdd:
				err = execAdd(m, u)
			case avr.OpAdc:
				err = execAdc(m, u)
			case avr.OpLsr:
				err = execLsr(m, u)
			case avr.OpSbrc:
				err = execSbrc(m, u)
			case avr.OpLdi:
				err = execLdi(m, u)
			case avr.OpEor:
				err = execEor(m, u)
			case avr.OpBrbc:
				err = execBrbc(m, u)
			default:
				err = dispatch[byte(u.in.Op)](m, u)
			}
			if err != nil {
				return err
			}
			if u.checked || m.cycle >= m.horizon || (limit != 0 && m.cycle >= limit) {
				break
			}
			// The PC after a control transfer is a basic-block leader;
			// dispatch translated blocks (counting the landing) before
			// falling back to per-op execution. The inlined dead probe skips
			// the call when the landing is already known untranslatable.
			if u.ctl && m.xl != nil && !m.xl.dead(m.pc) {
				halt, err := m.runTranslated(limit)
				if err != nil {
					return err
				}
				if halt || m.cycle >= m.horizon || (limit != 0 && m.cycle >= limit) {
					break
				}
			}
		}
	}
	return nil
}

// Step executes one instruction (or delivers one interrupt / sleeps).
func (m *Machine) Step() error {
	if m.fault != nil {
		return m.fault
	}
	if m.cycle >= m.dev.nextEvent {
		m.syncDevices()
	}
	if m.cycle >= m.hookAt {
		m.fireDue(true)
	}
	if m.pending != 0 && m.data[addrSREG]&flagI != 0 {
		m.deliverInterrupt()
		return nil
	}
	if m.sleeping {
		return m.advanceSleep()
	}
	u, err := m.fetchUop(m.pc)
	if err != nil {
		return m.faultf(FaultBadInst, 0, err.Error())
	}
	m.insts++
	fn := dispatch[byte(u.in.Op)]
	if m.prof.Instr == nil {
		return fn(m, u)
	}
	if u.in.Op == avr.OpKtrap {
		// The trap handler may switch tasks mid-exec; attribute the 1-cycle
		// KTRAP fetch to the task that reached the trap, before dispatch.
		// The kernel attributes the service's own charges itself.
		m.prof.Instr(m.pc, m.SP(), 1)
		return fn(m, u)
	}
	pc, before := m.pc, m.cycle
	err = fn(m, u)
	m.prof.Instr(pc, m.SP(), m.cycle-before)
	return err
}

// deliverInterrupt vectors to the highest-priority pending source.
func (m *Machine) deliverInterrupt() {
	var vec uint32
	switch {
	case m.pending&intTimer0 != 0:
		m.pending &^= intTimer0
		vec = VecTimer0
	case m.pending&intADC != 0:
		m.pending &^= intADC
		vec = VecADC
	case m.pending&intUART != 0:
		m.pending &^= intUART
		vec = VecUART
	default:
		m.pending &^= intRadioRx
		vec = VecRadioRx
	}
	m.sleeping = false
	m.pushWord(uint16(m.pc))
	m.data[addrSREG] &^= flagI
	m.pc = vec
	m.cycle += 4
	if m.prof.Interrupt != nil {
		m.prof.Interrupt(4)
	}
	if m.rec != nil {
		m.rec.Emit(trace.Event{Cycle: m.cycle, Kind: trace.KindInterrupt, Task: -1, Arg: uint64(vec)})
	}
}

// advanceSleep fast-forwards the clock to the next device event.
func (m *Machine) advanceSleep() error {
	next := m.dev.nextEvent
	if next == noEvent {
		return m.faultf(FaultDeadSleep, 0, "no device event scheduled")
	}
	if next > m.cycle {
		m.AddIdleCycles(next - m.cycle)
	}
	m.syncDevices()
	return nil
}

// Instructions returns the number of instructions executed since reset
// (interrupt deliveries and sleep advances excluded) — the numerator of the
// host-MIPS throughput metric.
func (m *Machine) Instructions() uint64 { return m.insts }

// SetStepwise forces Run and RunUntil onto the fully-checked per-instruction
// Step path, disabling the event-horizon fast loop. The benchmark harness
// uses it as the before/after comparator; both modes are cycle-identical.
func (m *Machine) SetStepwise(v bool) { m.stepwise = v }

// ClearFault clears a recorded fault so a supervising kernel can recover
// (e.g. grow a task's stack after a guard trip and retry the instruction;
// PC still points at the faulting instruction).
func (m *Machine) ClearFault() { m.fault = nil }

// Sleep puts the CPU into sleep mode, as the SLEEP instruction would. A
// supervising runtime that patches SLEEP out of application code uses this
// to re-enter the hardware sleep path after handling the trap.
func (m *Machine) Sleep() { m.sleeping = true }

// Wake clears sleep mode without delivering an interrupt — the supervising
// kernel's recovery path when a corrupted task executed a stray SLEEP and
// was terminated for it.
func (m *Machine) Wake() { m.sleeping = false }

// Energy model of the MICA2 node (CC1000 mote, 3 V supply): the ATmega128L
// draws ~8 mA active and ~15 µA in sleep mode. EnergyMilliJoules estimates
// the CPU energy consumed so far from the active/idle cycle split — the
// quantity the paper's introduction argues unpredictable latencies waste.
const (
	activeMilliAmps = 8.0
	sleepMilliAmps  = 0.015
	supplyVolts     = 3.0
)

// EnergyMilliJoules returns the estimated CPU energy spent since reset.
func (m *Machine) EnergyMilliJoules() float64 {
	active := float64(m.cycle-m.idle) / ClockHz
	idle := float64(m.idle) / ClockHz
	return (active*activeMilliAmps + idle*sleepMilliAmps) * supplyVolts
}
