// Package kernel implements the SenSmart kernel runtime (Section IV of the
// paper): preemptive multi-task scheduling through software branch traps and
// Timer3 time slices, logical addressing with per-task memory isolation, and
// versatile stack management with transparent stack relocation.
//
// The kernel runs host-side (in Go) and is entered through the KTRAP escapes
// the base-station rewriter placed in the naturalized images. Every service
// charges the simulated clock the cycle costs of Table II, so measured
// execution times reflect the paper's overhead model.
package kernel

import (
	"errors"
	"fmt"

	"repro/internal/avr"
	"repro/internal/energy"
	"repro/internal/mcu"
	"repro/internal/profile"
	"repro/internal/rewriter"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Config tunes the kernel. The zero value selects the defaults below.
type Config struct {
	// KernelData is the data-memory reservation for the kernel itself
	// (the paper reports ~10% of data memory; default 416 bytes).
	KernelData uint16
	// AppLimit caps the application area in bytes (0 = all remaining
	// memory). Figure 8 uses this to grant SenSmart exactly the stack
	// budget LiteOS has.
	AppLimit uint16
	// InitialStack is the predefined initial stack size per task
	// (Section IV-C3; default 64 bytes).
	InitialStack uint16
	// RedZone is the stack headroom the call-site check requires
	// (default 32 bytes).
	RedZone uint16
	// SliceCycles is the round-robin time slice (default 73728 cycles,
	// 10 ms at 7.3728 MHz).
	SliceCycles uint64
	// BranchInterval is the software-trap divisor: one out of this many
	// backward branches enters the scheduler (default 256).
	BranchInterval uint32
	// SleepQuantum is how long a SLEEP blocks the task (default 2048
	// cycles); tasks poll the virtual clock between sleeps.
	SleepQuantum uint64
	// DisableRelocation turns off stack relocation (Section IV-C3): any
	// stack growth beyond the initial allocation terminates the task. Used
	// by the fixed-stack baseline and the ablation benchmarks.
	DisableRelocation bool
	// Logf, when set, receives kernel trace lines (rendered from the same
	// typed events the Trace recorder captures).
	Logf func(format string, args ...any)
	// Trace, when set, receives typed cycle-stamped events from the kernel
	// and (wired by New) the machine. nil disables tracing at the cost of a
	// single pointer comparison per emission site.
	Trace *trace.Recorder
	// OnTaskExit, when set, runs as a task terminates, before its memory
	// region is released — the harness's chance to snapshot task heap state.
	OnTaskExit func(k *Kernel, t *Task)
	// Profile, when set, receives cycle-exact attribution of every simulated
	// cycle to (task, symbol) buckets, plus stack-depth samples and
	// watchpoint hits. nil disables profiling: every MCU and kernel hook
	// site is a single pointer comparison, like Trace.
	Profile *profile.Profiler
	// Telemetry, when set, receives a gauge snapshot of the kernel ledgers
	// every Telemetry.Every() simulated cycles (see internal/telemetry). nil
	// disables sampling at the cost of one pointer comparison per machine
	// run-loop horizon — the same discipline as Trace and Profile.
	Telemetry *telemetry.Sampler
	// Energy, when set, is the charge ledger the machine accrues device
	// power-state spans into (see internal/energy); Metrics and telemetry
	// samples then carry joules attribution. nil disables metering: every
	// hook site is a single pointer comparison, and none of the sites is on
	// the interpreter's fast loop — the same discipline as Trace/Profile/
	// Telemetry.
	Energy *energy.Meter
}

func (c *Config) setDefaults() {
	if c.KernelData == 0 {
		c.KernelData = 416
	}
	if c.InitialStack == 0 {
		c.InitialStack = 64
	}
	if c.RedZone == 0 {
		c.RedZone = 32
	}
	if c.SliceCycles == 0 {
		c.SliceCycles = 73728
	}
	if c.BranchInterval == 0 {
		c.BranchInterval = 256
	}
	if c.SleepQuantum == 0 {
		c.SleepQuantum = 2048
	}
}

// numClasses bounds the per-service accounting arrays (rewriter.Class is
// 1-based and tops out at ClassExit).
const numClasses = 16

// Stats aggregates kernel-level counters for the evaluation harnesses.
type Stats struct {
	ContextSwitches int
	Preemptions     int
	BranchTraps     uint64
	SliceChecks     uint64
	Relocations     int
	RelocatedBytes  uint64
	Terminations    int
	// ServiceCalls counts KTRAP dispatches by service class. A flat array
	// (indexed by rewriter.Class) rather than a map: the increment sits on
	// the per-trap hot path, and kernel benchmarks trap every few
	// instructions.
	ServiceCalls [numClasses]uint64
	// ServiceCycles is the total cycles charged while servicing each class
	// (native instruction cycles plus kernel overhead, net of the one-cycle
	// KTRAP fetch and of relocation/switch/idle costs, which are accounted
	// separately below). ServiceOverhead is the kernel-overhead portion
	// alone — the Table II cost per call.
	ServiceCycles   [numClasses]uint64
	ServiceOverhead [numClasses]uint64
	// BootCycles, SwitchCycles and RelocCycles attribute the remaining
	// kernel-charged cycles: system init, context switches, and stack
	// relocation/region compaction (fixed cost plus per-byte copies).
	BootCycles   uint64
	SwitchCycles uint64
	RelocCycles  uint64
}

// Sentinel errors.
var (
	// ErrNoMemory is returned when task admission cannot fit the new region.
	ErrNoMemory = errors.New("kernel: insufficient application memory")
	// ErrBooted is returned by a second Boot.
	ErrBooted = errors.New("kernel: already booted")
)

// loadedProg tracks one naturalized program placed in flash.
type loadedProg struct {
	nat  *rewriter.Naturalized
	base uint32
}

// Kernel is one SenSmart instance bound to a machine.
type Kernel struct {
	M   *mcu.Machine
	Cfg Config

	Tasks   []*Task
	regions []*Task // live tasks ordered by region address

	cur    int // index into Tasks of the running task; -1 = none
	progs  []*loadedProg
	traps  []trapRef // global KTRAP id -> (program, patch)
	booted bool

	flashTop uint32
	appBase  uint16
	appEnd   uint16

	// sym maps flash addresses back to function symbols; it is always
	// built (loadProgram registers every image) so fault diagnostics and
	// trap-cycle reconciliation stay symbolized even without a profiler.
	sym *profile.Symbolizer
	// prof mirrors Cfg.Profile; nil disables every attribution site.
	prof *profile.Profiler

	// curService tracks the service class a trap dispatch is executing (0 =
	// none), so fault records can attribute a mid-service fault to the
	// service acting on the task's behalf.
	curService rewriter.Class

	// FaultLog accumulates one attribution record per abnormal task
	// termination (see faultlog.go).
	FaultLog []FaultRecord

	Stats Stats
}

type trapRef struct {
	prog  *loadedProg
	patch *rewriter.Patch

	// Hot fields flattened from prog/patch at load time: a trap dispatch is
	// one KTRAP per few application instructions under naturalized code, so
	// the common services (branches above all) must not chase pointers for
	// values that are fixed once the program is linked.
	class     rewriter.Class
	backward  bool
	brKind    uint8 // branch evaluation: brAlways, brSet (BRBS), brClr (BRBC)
	brMask    byte  // SREG mask for brSet/brClr
	baseCyc   uint8 // the original instruction's base cycles (charge input)
	base      uint32
	absNext   uint32 // base + patch.NatNext
	absTarget uint32 // base + patch.NatTarget
}

// Branch-evaluation kinds for trapRef.brKind.
const (
	brAlways = iota
	brSet
	brClr
)

// New creates a kernel on m.
func New(m *mcu.Machine, cfg Config) *Kernel {
	cfg.setDefaults()
	appBase := uint16(mcu.SRAMBase)
	appEnd := uint16(mcu.DataSize) - cfg.KernelData
	if cfg.AppLimit != 0 && appBase+cfg.AppLimit < appEnd {
		appEnd = appBase + cfg.AppLimit
	}
	k := &Kernel{
		M:        m,
		Cfg:      cfg,
		cur:      -1,
		flashTop: 16, // leave the vector area clear
		appBase:  appBase,
		appEnd:   appEnd,
		sym:      profile.NewSymbolizer(),
		prof:     cfg.Profile,
	}
	m.SetTrapHandler(k.handleTrap)
	if cfg.Trace != nil {
		// Share the recorder with the machine so interrupt/idle/halt stamps
		// interleave with kernel events in global cycle order.
		m.SetRecorder(cfg.Trace)
	}
	if cfg.Telemetry != nil {
		every := cfg.Telemetry.Every()
		m.Arm(mcu.HookSample, (m.Cycles()/every+1)*every, every, k.telemetrySample)
	}
	if cfg.Energy != nil {
		m.SetEnergyMeter(cfg.Energy)
	}
	if k.prof != nil {
		k.prof.Bind(k.sym, cfg.Trace, mcu.ClockHz)
		m.SetProfileHooks(mcu.ProfileHooks{
			Instr:     k.prof.OnInstr,
			Idle:      k.prof.OnIdle,
			Interrupt: k.prof.OnInterrupt,
			// Native accesses (push/pop and unpatched loads/stores) carry
			// physical addresses; translate through the running task's
			// region before matching watchpoints, which are logical.
			Mem: func(pc uint32, addr uint16, write bool) {
				if len(k.prof.Watches()) == 0 {
					return
				}
				logical := k.physToLogical(addr)
				if k.prof.Watching(logical, write) {
					task := int32(-1)
					if t := k.Current(); t != nil {
						task = int32(t.ID)
					}
					k.prof.Watch(k.M.Cycles(), task, pc, logical, write)
				}
			},
		})
	}
	return k
}

// Symbolizer exposes the kernel's flash-address symbolizer so harnesses can
// render PCs as function names (fault reports, reconciliation errors).
func (k *Kernel) Symbolizer() *profile.Symbolizer { return k.sym }

// physToLogical inverts the running task's address translation for a
// physical SRAM address; addresses outside the task's region (or with no
// running task) pass through unchanged.
func (k *Kernel) physToLogical(phys uint16) uint16 {
	if t := k.Current(); t != nil {
		if l, ok := t.LogicalAddr(phys); ok {
			return l
		}
	}
	return phys
}

func (k *Kernel) logf(format string, args ...any) {
	if k.Cfg.Logf != nil {
		k.Cfg.Logf(format, args...)
	}
}

// taskName resolves a task id for event rendering.
func (k *Kernel) taskName(id int32) string {
	if int(id) < len(k.Tasks) && id >= 0 {
		return k.Tasks[id].Name
	}
	return fmt.Sprintf("task%d", id)
}

// ev stamps and emits one lifecycle event, and renders it to Logf — the
// human-log adapter that replaces the old free-form trace lines. Hot-path
// kinds (trap enter/exit, slice checks) bypass this and emit straight into
// the recorder behind their own nil check.
func (k *Kernel) ev(e trace.Event) {
	e.Cycle = k.M.Cycles()
	if k.Cfg.Trace != nil {
		k.Cfg.Trace.Emit(e)
	}
	if k.Cfg.Logf != nil {
		switch e.Kind {
		case trace.KindProgLoad, trace.KindTaskSpawn, trace.KindTaskExit,
			trace.KindReloc, trace.KindBoot:
			k.Cfg.Logf("%s", e.Format(k.taskName))
		}
	}
}

// AppMemory returns the application area bounds [base, end).
func (k *Kernel) AppMemory() (base, end uint16) { return k.appBase, k.appEnd }

// FreeMemory returns the unallocated trailing bytes of the application area.
func (k *Kernel) FreeMemory() uint16 {
	if len(k.regions) == 0 {
		return k.appEnd - k.appBase
	}
	return k.appEnd - k.regions[len(k.regions)-1].pu
}

// loadProgram places a naturalized program in flash (once per program),
// assigning global trap ids and applying link-time relocations.
func (k *Kernel) loadProgram(nat *rewriter.Naturalized) (*loadedProg, error) {
	for _, lp := range k.progs {
		if lp.nat == nat {
			return lp, nil
		}
	}
	base := k.flashTop
	words := append([]uint16(nil), nat.Program.Words...)
	// Relocate absolute JMP/CALL targets to the flash base.
	for _, r := range nat.Relocs {
		words[r] += uint16(base)
	}
	// Install global trap ids into the KTRAP id words.
	idBase := len(k.traps)
	if idBase+len(nat.Patches) > 0x10000 {
		return nil, fmt.Errorf("kernel: trap id space exhausted loading %s", nat.Program.Name)
	}
	lp := &loadedProg{nat: nat, base: base}
	k.progs = append(k.progs, lp)
	for _, p := range nat.Patches {
		words[p.NatPC+1] = uint16(idBase)
		ref := trapRef{
			prog: lp, patch: p,
			class: p.Class, backward: p.Backward,
			baseCyc:   uint8(p.Orig.Op.BaseCycles()),
			base:      base,
			absNext:   base + p.NatNext,
			absTarget: base + p.NatTarget,
		}
		switch p.Orig.Op {
		case avr.OpBrbs:
			ref.brKind, ref.brMask = brSet, 1<<(p.Orig.Src&7)
		case avr.OpBrbc:
			ref.brKind, ref.brMask = brClr, 1<<(p.Orig.Src&7)
		}
		k.traps = append(k.traps, ref)
		idBase++
	}
	if err := k.M.LoadFlash(base, words); err != nil {
		k.progs = k.progs[:len(k.progs)-1]
		k.traps = k.traps[:len(k.traps)-len(nat.Patches)]
		return nil, err
	}
	k.flashTop = base + uint32(len(words))
	k.sym.AddImage(nat.Program.Name, base, nat.Program, nat.CodeWords, nat.TrampolineWords)
	k.ev(trace.Event{Kind: trace.KindProgLoad, Task: -1, Arg: uint64(base),
		Arg2: uint64(len(words)), Detail: nat.Program.Name})
	return lp, nil
}

// AddTask admits one instance of the naturalized program as a task,
// allocating its memory region (fixed heap + initial stack). It fails with
// ErrNoMemory when the region does not fit. Before Boot it only registers
// the task; after Boot it behaves like SpawnTask.
func (k *Kernel) AddTask(name string, nat *rewriter.Naturalized) (*Task, error) {
	lp, err := k.loadProgram(nat)
	if err != nil {
		return nil, err
	}
	stack := k.Cfg.InitialStack
	if nat.Program.StackReserve > stack {
		stack = nat.Program.StackReserve
	}
	heap := nat.Program.HeapSize
	size := heap + stack
	start := k.appBase
	if n := len(k.regions); n > 0 {
		start = k.regions[n-1].pu
	}
	if int(start)+int(size) > int(k.appEnd) {
		return nil, fmt.Errorf("%w: task %s needs %d bytes, %d free",
			ErrNoMemory, name, size, k.appEnd-start)
	}
	t := &Task{
		ID:     len(k.Tasks),
		Name:   name,
		Nat:    nat,
		Base:   lp.base,
		pl:     start,
		ph:     start + heap,
		pu:     start + size,
		state:  TaskReady,
		pc:     lp.base + nat.Program.Entry,
		spPhys: start + size - 1,
	}
	t.spShadow = t.logicalSP()
	t.branchLeft = k.Cfg.BranchInterval
	k.Tasks = append(k.Tasks, t)
	k.regions = append(k.regions, t)
	if k.booted {
		// Runtime admission ("reprogramming as an OS service",
		// Section III-A): initialize the heap immediately; the scheduler
		// will pick the task up at the next scheduling point.
		k.initTaskHeap(t)
	}
	if k.prof != nil {
		k.prof.RegisterTask(int32(t.ID), name, t.pl, t.ph, t.pu)
	}
	if k.Cfg.Telemetry != nil {
		k.Cfg.Telemetry.RegisterTask(int32(t.ID), name)
	}
	k.ev(trace.Event{Kind: trace.KindTaskSpawn, Task: int32(t.ID), Arg: uint64(t.pl),
		Arg2: uint64(size), Detail: name})
	return t, nil
}

// SpawnTask admits and starts one task instance while the system is
// running — the dynamic-reprogramming path. It is AddTask plus the
// requirement that the kernel has booted.
func (k *Kernel) SpawnTask(name string, nat *rewriter.Naturalized) (*Task, error) {
	if !k.booted {
		return nil, errors.New("kernel: SpawnTask before Boot; use AddTask")
	}
	return k.AddTask(name, nat)
}

// initTaskHeap copies the program's .data image into the task's heap and
// zeroes the rest.
func (k *Kernel) initTaskHeap(t *Task) {
	for i := 0; i < int(t.HeapSize()); i++ {
		var v byte
		if i < len(t.Nat.Program.DataInit) {
			v = t.Nat.Program.DataInit[i]
		}
		k.M.Poke(t.pl+uint16(i), v)
	}
}

// Boot initializes all admitted tasks and starts the first one. It charges
// the system-initialization cost of Table II.
func (k *Kernel) Boot() error {
	if k.booted {
		return ErrBooted
	}
	if len(k.Tasks) == 0 {
		return errors.New("kernel: no tasks admitted")
	}
	k.booted = true
	k.M.AddCycles(CostSysInit)
	k.Stats.BootCycles += CostSysInit
	if k.prof != nil {
		k.prof.OnBoot(CostSysInit)
	}
	for _, t := range k.Tasks {
		k.initTaskHeap(t)
	}
	k.ev(trace.Event{Kind: trace.KindBoot, Task: -1, Arg: CostSysInit})
	k.restore(k.Tasks[0], 0)
	k.ev(trace.Event{Kind: trace.KindSwitch, Task: int32(k.Tasks[0].ID)})
	return nil
}

// Done reports whether every task has terminated.
func (k *Kernel) Done() bool {
	for _, t := range k.Tasks {
		if t.state != TaskTerminated {
			return false
		}
	}
	return true
}

// Current returns the running task, or nil.
func (k *Kernel) Current() *Task {
	if k.cur < 0 {
		return nil
	}
	return k.Tasks[k.cur]
}

// Run executes until every task terminates, the machine halts, or the cycle
// limit is reached (0 = no limit). Guard trips are recovered into stack
// growth or task termination, mirroring the paper's stack checking and
// memory isolation semantics.
func (k *Kernel) Run(limit uint64) error {
	m := k.M
	for limit == 0 || m.Cycles() < limit {
		// RunUntil batches execution through the machine's event-horizon
		// fast loop (KTRAPs re-enter the kernel through the trap handler as
		// before); it returns nil only once the limit is reached, and
		// surfaces faults for the recovery paths below. The instruction that
		// faulted has not advanced PC, so growth-and-retry still works.
		err := m.RunUntil(limit)
		if err == nil {
			continue
		}
		var f *mcu.Fault
		if !errors.As(err, &f) {
			return err
		}
		switch f.Kind {
		case mcu.FaultHalt:
			return nil
		case mcu.FaultStackOverflow:
			// A native push ran out of stack: grow and retry the
			// instruction (PC still points at it).
			t := k.Current()
			if t == nil {
				return err
			}
			m.ClearFault()
			t.spPhys = m.SP()
			if !k.growStack(t, k.Cfg.RedZone) {
				reason := "stack overflow: no memory to grow"
				k.recordFault(t, f.Kind.String(), f.PC, reason)
				k.terminate(t, reason)
				if k.Done() {
					return nil
				}
			}
		case mcu.FaultMemGuard:
			t := k.Current()
			if t == nil {
				return err
			}
			m.ClearFault()
			if k.Cfg.Trace != nil {
				k.Cfg.Trace.Emit(trace.Event{Cycle: m.Cycles(), Kind: trace.KindMemFault,
					Task: int32(t.ID), Arg: uint64(f.Addr), PC: f.PC, Detail: k.sym.Name(f.PC)})
			}
			reason := fmt.Sprintf("memory isolation violation at %#x (pc %#x in %s)",
				f.Addr, f.PC, k.sym.Name(f.PC))
			k.recordFault(t, f.Kind.String(), f.PC, reason)
			k.terminate(t, reason)
			if k.Done() {
				return nil
			}
		case mcu.FaultBadInst, mcu.FaultBreak, mcu.FaultTrap, mcu.FaultDeadSleep:
			// "Accesses beyond a task's memory region are intercepted and
			// treated as invalid instructions" (Section IV-C2) — and an
			// invalid instruction terminates the offending task, not the
			// system. These kinds reach here only when execution has gone
			// off the rails (corrupted code or control flow): contain the
			// blast radius to the current task and keep the others running.
			t := k.Current()
			if t == nil {
				return err
			}
			m.ClearFault()
			m.Wake() // a corrupted native SLEEP must not outlive its task
			reason := fmt.Sprintf("%s at pc %#x in %s", f.Kind, f.PC, k.sym.Name(f.PC))
			if f.Note != "" {
				reason += " (" + f.Note + ")"
			}
			k.recordFault(t, f.Kind.String(), f.PC, reason)
			k.terminate(t, reason)
			if k.Done() {
				return nil
			}
		default:
			return err
		}
	}
	// The cycle budget stopped the run, not the workload.
	if k.Cfg.Trace != nil {
		k.Cfg.Trace.Emit(trace.Event{Cycle: m.Cycles(), Kind: trace.KindBudget, Task: -1, Arg: limit})
	}
	return nil
}

// save captures the machine context into t; contPC is where the task will
// resume.
func (k *Kernel) save(t *Task, contPC uint32) {
	m := k.M
	for i := uint8(0); i < 32; i++ {
		t.regs[i] = m.Reg(i)
	}
	t.sreg = m.SREG()
	t.spPhys = m.SP()
	t.pc = contPC
	t.noteStackUse()
}

// restore loads t's context into the machine and makes it current. A
// contPC of 0 means "use the task's saved pc".
func (k *Kernel) restore(t *Task, contPC uint32) {
	m := k.M
	for i := uint8(0); i < 32; i++ {
		m.SetReg(i, t.regs[i])
	}
	m.SetSREG(t.sreg)
	m.SetSP(t.spPhys)
	m.SetGuard(t.pl, t.pu)
	if contPC == 0 {
		contPC = t.pc
	}
	m.SetPC(contPC)
	t.spShadow = t.logicalSP()
	t.Switches++
	for i, task := range k.Tasks {
		if task == t {
			k.cur = i
		}
	}
	t.sliceStart = m.Cycles()
	t.runStart = t.sliceStart
	if k.prof != nil {
		k.prof.SetContext(int32(t.ID), t.pl, t.ph, t.pu)
	}
}

// accrueRun credits the running task's wall-clock cycles up to now. Called
// whenever the task may stop holding the CPU (scheduling, termination) and
// when a metrics snapshot is taken, so idle and context-switch cycles never
// land inside any task's run window.
func (k *Kernel) accrueRun(t *Task) {
	now := k.M.Cycles()
	if now > t.runStart {
		t.runCycles += now - t.runStart
	}
	t.runStart = now
}

// schedule picks the next ready task after the current one and switches to
// it; contPC is where the current task (if still live) resumes. When no task
// is ready the kernel idles the CPU until the earliest sleeper wakes; when
// all tasks are terminated it halts the machine.
func (k *Kernel) schedule(contPC uint32) {
	// Ready any sleeper whose wake time has passed, so busy tasks cannot
	// starve them of scheduling.
	k.wakeSleepers()
	cur := k.Current()
	if cur != nil {
		k.accrueRun(cur)
	}
	next := k.pickNext()
	for next == nil {
		// Idle: advance to the earliest wake-up.
		wake, ok := k.earliestWake()
		if !ok {
			k.M.Halt("all tasks terminated")
			return
		}
		if wake > k.M.Cycles() {
			k.M.AddIdleCycles(wake - k.M.Cycles())
		}
		k.wakeSleepers()
		next = k.pickNext()
	}
	if next == cur {
		// Only one runnable task: keep running without a switch.
		k.M.SetPC(contPC)
		return
	}
	if cur != nil && cur.state != TaskTerminated {
		k.save(cur, contPC)
	}
	k.M.AddCycles(CostFullSwitch)
	k.Stats.ContextSwitches++
	k.Stats.SwitchCycles += CostFullSwitch
	if k.prof != nil {
		k.prof.OnSwitch(CostFullSwitch)
	}
	k.restore(next, 0)
	if k.Cfg.Trace != nil {
		prev := uint64(0)
		if cur != nil {
			prev = uint64(cur.ID) + 1
		}
		k.Cfg.Trace.Emit(trace.Event{Cycle: k.M.Cycles(), Kind: trace.KindSwitch,
			Task: int32(next.ID), Arg: prev, Arg2: CostFullSwitch})
	}
}

// pickNext returns the next ready task in round-robin order (starting after
// the current task), or nil.
func (k *Kernel) pickNext() *Task {
	n := len(k.Tasks)
	for off := 1; off <= n; off++ {
		t := k.Tasks[(k.cur+off+n)%n]
		if t.state == TaskReady {
			return t
		}
	}
	return nil
}

// earliestWake returns the soonest wake cycle among sleeping tasks.
func (k *Kernel) earliestWake() (uint64, bool) {
	var (
		best  uint64
		found bool
	)
	for _, t := range k.Tasks {
		if t.state != TaskSleeping {
			continue
		}
		if !found || t.wakeAt < best {
			best = t.wakeAt
			found = true
		}
	}
	return best, found
}

// wakeSleepers readies every sleeping task whose wake time has come.
func (k *Kernel) wakeSleepers() {
	now := k.M.Cycles()
	for _, t := range k.Tasks {
		if t.state == TaskSleeping && t.wakeAt <= now {
			t.state = TaskReady
			if k.Cfg.Trace != nil {
				k.Cfg.Trace.Emit(trace.Event{Cycle: now, Kind: trace.KindWake, Task: int32(t.ID)})
			}
		}
	}
}

// terminate stops t and releases its memory region.
func (k *Kernel) terminate(t *Task, reason string) {
	if t.state == TaskTerminated {
		return
	}
	if k.Current() == t {
		k.accrueRun(t)
	}
	t.state = TaskTerminated
	t.ExitReason = reason
	k.Stats.Terminations++
	k.ev(trace.Event{Kind: trace.KindTaskExit, Task: int32(t.ID),
		Arg: uint64(t.MaxStackUsed), Detail: reason})
	if k.Cfg.OnTaskExit != nil {
		k.Cfg.OnTaskExit(k, t)
	}
	size := t.pu - t.pl
	relocBefore := k.Stats.RelocCycles
	k.releaseRegion(t)
	if k.prof != nil {
		k.prof.OnCompact(k.Stats.RelocCycles - relocBefore)
	}
	if k.Cfg.Trace != nil && size > 0 {
		k.Cfg.Trace.Emit(trace.Event{Cycle: k.M.Cycles(), Kind: trace.KindRelease,
			Task: int32(t.ID), Arg: uint64(size), Arg2: k.Stats.RelocCycles - relocBefore})
	}
	if k.Current() == t {
		k.cur = -1
		k.schedule(0)
	}
}
