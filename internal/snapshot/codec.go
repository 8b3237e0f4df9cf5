package snapshot

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/energy"
	"repro/internal/kernel"
	"repro/internal/mcu"
	"repro/internal/profile"
	"repro/internal/rewriter"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// le32/le64 append little-endian integers; rd32/rd64 read them. The codec is
// hand-rolled rather than gob/encoding-based so the byte stream is fully
// deterministic (canonical: encode(decode(b)) == b), diffable against the
// golden, and rejects malformed input with typed errors instead of panics.
func le32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func le64(b []byte, v uint64) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

func rd32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func rd64(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// enc appends primitives to a growing payload.
type enc struct{ b []byte }

func (e *enc) u8(v byte)    { e.b = append(e.b, v) }
func (e *enc) u16(v uint16) { e.b = append(e.b, byte(v), byte(v>>8)) }
func (e *enc) u32(v uint32) { e.b = le32(e.b, v) }
func (e *enc) u64(v uint64) { e.b = le64(e.b, v) }
func (e *enc) i64(v int64)  { e.u64(uint64(v)) }

func (e *enc) bool(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}

func (e *enc) optional(present bool) { e.bool(present) }

func (e *enc) bytes(v []byte) {
	e.u32(uint32(len(v)))
	e.b = append(e.b, v...)
}

func (e *enc) str(v string) {
	e.u32(uint32(len(v)))
	e.b = append(e.b, v...)
}

func (e *enc) count(n int) { e.u32(uint32(n)) }

// dec consumes a payload with a sticky error: after the first failure every
// read returns zero values, so decoders can run straight through and check
// d.err once.
type dec struct {
	b   []byte
	off int
	err error
}

func (d *dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", ErrMalformed, fmt.Sprintf(format, args...))
	}
}

// need reserves n bytes, failing with ErrTruncated-flavored ErrMalformed
// when the payload is too short. (The payload length is authenticated by the
// header hash, so running out of bytes here means the contents lie about
// their own sizes — malformed, not truncated.)
func (d *dec) need(n int) bool {
	if d.err != nil {
		return false
	}
	if n < 0 || len(d.b)-d.off < n {
		d.fail("field of %d bytes overruns payload (%d left)", n, len(d.b)-d.off)
		return false
	}
	return true
}

func (d *dec) u8() byte {
	if !d.need(1) {
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *dec) u16() uint16 {
	if !d.need(2) {
		return 0
	}
	v := uint16(d.b[d.off]) | uint16(d.b[d.off+1])<<8
	d.off += 2
	return v
}

func (d *dec) u32() uint32 {
	if !d.need(4) {
		return 0
	}
	v := rd32(d.b[d.off:])
	d.off += 4
	return v
}

func (d *dec) u64() uint64 {
	if !d.need(8) {
		return 0
	}
	v := rd64(d.b[d.off:])
	d.off += 8
	return v
}

func (d *dec) i64() int64 { return int64(d.u64()) }

func (d *dec) bool() bool {
	switch v := d.u8(); v {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail("bool byte is %#x, want 0 or 1", v)
		return false
	}
}

func (d *dec) optional() bool { return d.bool() }

func (d *dec) bytes() []byte {
	n := int(d.u32())
	if !d.need(n) {
		return nil
	}
	v := append([]byte(nil), d.b[d.off:d.off+n]...)
	d.off += n
	return v
}

func (d *dec) str() string {
	n := int(d.u32())
	if !d.need(n) {
		return ""
	}
	v := string(d.b[d.off : d.off+n])
	d.off += n
	return v
}

// sliceCount reads a slice length and sanity-checks it against the remaining
// payload at minSize bytes per element, so a bit-flipped count cannot drive
// a multi-gigabyte allocation before the shortfall is noticed.
func (d *dec) sliceCount(minSize int) int {
	n := d.u32()
	if d.err != nil {
		return 0
	}
	if int(n) > (len(d.b)-d.off)/minSize {
		d.fail("slice count %d exceeds remaining payload", n)
		return 0
	}
	return int(n)
}

func (e *enc) u64x16(a [16]uint64) {
	for _, v := range a {
		e.u64(v)
	}
}

func (d *dec) u64x16() (a [16]uint64) {
	for i := range a {
		a[i] = d.u64()
	}
	return a
}

// --- mcu ---

func (e *enc) machineState(st *mcu.MachineState) {
	e.bytes(st.Data)
	e.u32(st.PC)
	e.u64(st.Cycle)
	e.u64(st.Idle)
	e.u64(st.Insts)
	e.bool(st.Sleeping)
	e.u8(st.FaultKind)
	e.u32(st.FaultPC)
	e.u16(st.FaultAddr)
	e.str(st.FaultNote)
	e.u8(st.Pending)
	e.bool(st.Stepwise)
	e.u16(st.GuardLo)
	e.u16(st.GuardHi)
	e.bool(st.GuardOn)
	e.u64(st.SampleEvery)
	e.u64(st.SampleNext)
	e.u32(st.CodeEnd)
	e.b = append(e.b, st.FlashHash[:]...)

	dv := &st.Dev
	e.u64(dv.NextEvent)
	e.u64(dv.T0BaseCycle)
	e.u16(dv.T0BaseCount)
	e.u32(dv.T0Prescale)
	e.u64(dv.ADCBusyUntil)
	e.bool(dv.ADCPending)
	e.u16(dv.ADCLFSR)
	e.u64(dv.UARTBusyUntil)
	e.u8(dv.UARTPendingB)
	e.bool(dv.UARTPending)
	e.bytes(dv.UARTOut)
	e.u64(dv.RadioBusyUntil)
	e.u8(dv.RadioPendingB)
	e.bool(dv.RadioPending)
	e.count(len(dv.RadioOut))
	for _, f := range dv.RadioOut {
		e.u8(f.Byte)
		e.u64(f.Cycle)
	}
	e.bytes(dv.RadioIn)
}

func (d *dec) machineState() *mcu.MachineState {
	st := &mcu.MachineState{}
	st.Data = d.bytes()
	st.PC = d.u32()
	st.Cycle = d.u64()
	st.Idle = d.u64()
	st.Insts = d.u64()
	st.Sleeping = d.bool()
	st.FaultKind = d.u8()
	st.FaultPC = d.u32()
	st.FaultAddr = d.u16()
	st.FaultNote = d.str()
	st.Pending = d.u8()
	st.Stepwise = d.bool()
	st.GuardLo = d.u16()
	st.GuardHi = d.u16()
	st.GuardOn = d.bool()
	st.SampleEvery = d.u64()
	st.SampleNext = d.u64()
	st.CodeEnd = d.u32()
	if d.need(32) {
		copy(st.FlashHash[:], d.b[d.off:d.off+32])
		d.off += 32
	}

	dv := &st.Dev
	dv.NextEvent = d.u64()
	dv.T0BaseCycle = d.u64()
	dv.T0BaseCount = d.u16()
	dv.T0Prescale = d.u32()
	dv.ADCBusyUntil = d.u64()
	dv.ADCPending = d.bool()
	dv.ADCLFSR = d.u16()
	dv.UARTBusyUntil = d.u64()
	dv.UARTPendingB = d.u8()
	dv.UARTPending = d.bool()
	dv.UARTOut = d.bytes()
	dv.RadioBusyUntil = d.u64()
	dv.RadioPendingB = d.u8()
	dv.RadioPending = d.bool()
	n := d.sliceCount(9)
	if n > 0 {
		dv.RadioOut = make([]mcu.RadioFrame, n)
		for i := range dv.RadioOut {
			dv.RadioOut[i].Byte = d.u8()
			dv.RadioOut[i].Cycle = d.u64()
		}
	}
	dv.RadioIn = d.bytes()
	return st
}

// --- kernel ---

func (e *enc) kernelState(st *kernel.KernelState) {
	s := &st.Stats
	e.i64(int64(s.ContextSwitches))
	e.i64(int64(s.Preemptions))
	e.u64(s.BranchTraps)
	e.u64(s.SliceChecks)
	e.i64(int64(s.Relocations))
	e.u64(s.RelocatedBytes)
	e.i64(int64(s.Terminations))
	e.u64x16(s.ServiceCalls)
	e.u64x16(s.ServiceCycles)
	e.u64x16(s.ServiceOverhead)
	e.u64(s.BootCycles)
	e.u64(s.SwitchCycles)
	e.u64(s.RelocCycles)

	e.i64(int64(st.Cur))
	e.bool(st.Booted)
	e.u8(st.Service)
	e.u32(st.FlashTop)
	e.u16(st.AppBase)
	e.u16(st.AppEnd)

	e.count(len(st.Tasks))
	for i := range st.Tasks {
		t := &st.Tasks[i]
		e.i64(int64(t.ID))
		e.str(t.Name)
		e.u32(t.Base)
		e.u16(t.PL)
		e.u16(t.PH)
		e.u16(t.PU)
		e.u8(t.State)
		e.u64(t.WakeAt)
		e.b = append(e.b, t.Regs[:]...)
		e.u8(t.SREG)
		e.u16(t.SPPhys)
		e.u32(t.PC)
		e.u16(t.SPShad)
		e.u32(t.BrLeft)
		e.u64(t.SliceAt)
		e.u64(t.RunAt)
		e.u64(t.RunCyc)
		e.u8(t.T3Latch)
		e.i64(int64(t.Relocations))
		e.u16(t.MaxStackUsed)
		e.str(t.ExitReason)
		e.i64(int64(t.Switches))
		e.u64x16(t.ServiceCalls)
		e.u64(t.KernelCycles)
	}
	e.count(len(st.Regions))
	for _, id := range st.Regions {
		e.i64(int64(id))
	}
	e.count(len(st.FaultLog))
	for i := range st.FaultLog {
		f := &st.FaultLog[i]
		e.u64(f.Cycle)
		e.i64(int64(f.Task))
		e.str(f.Name)
		e.u8(uint8(f.Service))
		e.str(f.Kind)
		e.u32(f.PC)
		e.str(f.Sym)
		e.str(f.Reason)
	}
}

func (d *dec) kernelState() *kernel.KernelState {
	st := &kernel.KernelState{}
	s := &st.Stats
	s.ContextSwitches = int(d.i64())
	s.Preemptions = int(d.i64())
	s.BranchTraps = d.u64()
	s.SliceChecks = d.u64()
	s.Relocations = int(d.i64())
	s.RelocatedBytes = d.u64()
	s.Terminations = int(d.i64())
	s.ServiceCalls = d.u64x16()
	s.ServiceCycles = d.u64x16()
	s.ServiceOverhead = d.u64x16()
	s.BootCycles = d.u64()
	s.SwitchCycles = d.u64()
	s.RelocCycles = d.u64()

	st.Cur = int(d.i64())
	st.Booted = d.bool()
	st.Service = d.u8()
	st.FlashTop = d.u32()
	st.AppBase = d.u16()
	st.AppEnd = d.u16()

	n := d.sliceCount(64)
	if n > 0 {
		st.Tasks = make([]kernel.TaskRecord, n)
	}
	for i := range st.Tasks {
		t := &st.Tasks[i]
		t.ID = int(d.i64())
		t.Name = d.str()
		t.Base = d.u32()
		t.PL = d.u16()
		t.PH = d.u16()
		t.PU = d.u16()
		t.State = d.u8()
		t.WakeAt = d.u64()
		if d.need(32) {
			copy(t.Regs[:], d.b[d.off:d.off+32])
			d.off += 32
		}
		t.SREG = d.u8()
		t.SPPhys = d.u16()
		t.PC = d.u32()
		t.SPShad = d.u16()
		t.BrLeft = d.u32()
		t.SliceAt = d.u64()
		t.RunAt = d.u64()
		t.RunCyc = d.u64()
		t.T3Latch = d.u8()
		t.Relocations = int(d.i64())
		t.MaxStackUsed = d.u16()
		t.ExitReason = d.str()
		t.Switches = int(d.i64())
		t.ServiceCalls = d.u64x16()
		t.KernelCycles = d.u64()
	}
	n = d.sliceCount(8)
	if n > 0 {
		st.Regions = make([]int, n)
		for i := range st.Regions {
			st.Regions[i] = int(d.i64())
		}
	}
	n = d.sliceCount(8)
	if n > 0 {
		st.FaultLog = make([]kernel.FaultRecord, n)
	}
	for i := range st.FaultLog {
		f := &st.FaultLog[i]
		f.Cycle = d.u64()
		f.Task = int(d.i64())
		f.Name = d.str()
		f.Service = rewriter.Class(d.u8())
		f.Kind = d.str()
		f.PC = d.u32()
		f.Sym = d.str()
		f.Reason = d.str()
	}
	return st
}

// --- trace ---

// eventMinSize is the encoded size of a trace event with an empty detail:
// cycle, kind, task, arg, arg2, pc and the detail length.
const eventMinSize = 8 + 1 + 4 + 8 + 8 + 4 + 4

func (e *enc) recorderState(st *trace.RecorderState) {
	e.i64(int64(st.Limit))
	e.u64(st.Dropped)
	n := st.Len()
	e.count(n)
	e.b = slices.Grow(e.b, n*eventMinSize+st.DetailBytes())
	e.b = st.AppendEvents(e.b, appendEvent)
}

// appendEvent writes one trace event: its fixed eventMinSize-byte part in
// one put, then its detail.
func appendEvent(b []byte, ev trace.Event) []byte {
	at := len(b)
	b = slices.Grow(b, eventMinSize)[:at+eventMinSize]
	p := b[at:]
	binary.LittleEndian.PutUint64(p[0:], ev.Cycle)
	p[8] = uint8(ev.Kind)
	binary.LittleEndian.PutUint32(p[9:], uint32(ev.Task))
	binary.LittleEndian.PutUint64(p[13:], ev.Arg)
	binary.LittleEndian.PutUint64(p[21:], ev.Arg2)
	binary.LittleEndian.PutUint32(p[29:], ev.PC)
	binary.LittleEndian.PutUint32(p[33:], uint32(len(ev.Detail)))
	return append(b, ev.Detail...)
}

// recorderState decodes the trace section by emitting its events into a
// recorder and capturing it, so a decoded state is laid out in chunks
// exactly as a captured one.
func (d *dec) recorderState() *trace.RecorderState {
	limit := int(d.i64())
	dropped := d.u64()
	n := d.sliceCount(eventMinSize)
	r := trace.New()
	for i := 0; i < n && d.err == nil; i++ {
		var ev trace.Event
		ev.Cycle = d.u64()
		ev.Kind = trace.Kind(d.u8())
		ev.Task = int32(d.u32())
		ev.Arg = d.u64()
		ev.Arg2 = d.u64()
		ev.PC = d.u32()
		ev.Detail = d.str()
		r.Emit(ev)
	}
	st := r.CaptureState()
	st.Limit, st.Dropped = limit, dropped
	return st
}

// --- telemetry ---

func (e *enc) samplerState(st *telemetry.SamplerState) {
	e.u64(st.Every)
	e.i64(int64(st.Ring))
	e.u64(st.Total)
	e.count(len(st.Samples))
	for i := range st.Samples {
		e.sample(&st.Samples[i])
	}
	e.count(len(st.TaskIDs))
	for _, id := range st.TaskIDs {
		e.u32(uint32(id))
	}
	e.count(len(st.TaskNames))
	for _, name := range st.TaskNames {
		e.str(name)
	}
}

func (e *enc) sample(s *telemetry.Sample) {
	e.u64(s.At)
	e.u64(s.Cycle)
	e.u64(s.IdleCycles)
	e.u64(s.ServiceOverheadCycles)
	e.u64(s.SwitchCycles)
	e.u64(s.RelocCycles)
	e.u64(s.BootCycles)
	e.i64(int64(s.ContextSwitches))
	e.i64(int64(s.Preemptions))
	e.u64(s.SliceChecks)
	e.u64(s.BranchTraps)
	e.i64(int64(s.Relocations))
	e.u64(s.RelocatedBytes)
	e.i64(int64(s.Terminations))
	e.u32(s.HeapBytes)
	e.u32(s.StackBytes)
	e.u32(s.FreeBytes)
	e.u32(uint32(s.Running))
	e.count(len(s.Tasks))
	for j := range s.Tasks {
		t := &s.Tasks[j]
		e.u32(uint32(t.ID))
		e.str(t.Name)
		e.str(t.State)
		e.u64(t.RunCycles)
		e.u64(t.KernelCycles)
		e.u16(t.StackUsed)
		e.u16(t.StackPeak)
		e.u16(t.StackAlloc)
		e.u16(t.HeapBytes)
		e.u64(t.Traps)
		e.i64(int64(t.Relocations))
		e.i64(int64(t.Switches))
		e.u64(t.EnergyPJ)
	}
	// Schema v2: cumulative energy gauges (all zero on unmetered runs).
	e.u64(s.EnergyPJ)
	e.u64(s.EnergyCPUActivePJ)
	e.u64(s.EnergyCPUSleepPJ)
	e.u64(s.EnergyRadioPJ)
	e.u64(s.EnergyUARTPJ)
	e.u64(s.EnergyADCPJ)
	e.u64(s.EnergyTimerPJ)
}

func (d *dec) samplerState() *telemetry.SamplerState {
	st := &telemetry.SamplerState{}
	st.Every = d.u64()
	st.Ring = int(d.i64())
	st.Total = d.u64()
	n := d.sliceCount(64)
	if n > 0 {
		st.Samples = make([]telemetry.Sample, n)
	}
	for i := range st.Samples {
		d.sample(&st.Samples[i])
	}
	n = d.sliceCount(4)
	if n > 0 {
		st.TaskIDs = make([]int32, n)
		for i := range st.TaskIDs {
			st.TaskIDs[i] = int32(d.u32())
		}
	}
	n = d.sliceCount(4)
	if n > 0 {
		st.TaskNames = make([]string, n)
		for i := range st.TaskNames {
			st.TaskNames[i] = d.str()
		}
	}
	return st
}

func (d *dec) sample(s *telemetry.Sample) {
	s.At = d.u64()
	s.Cycle = d.u64()
	s.IdleCycles = d.u64()
	s.ServiceOverheadCycles = d.u64()
	s.SwitchCycles = d.u64()
	s.RelocCycles = d.u64()
	s.BootCycles = d.u64()
	s.ContextSwitches = int(d.i64())
	s.Preemptions = int(d.i64())
	s.SliceChecks = d.u64()
	s.BranchTraps = d.u64()
	s.Relocations = int(d.i64())
	s.RelocatedBytes = d.u64()
	s.Terminations = int(d.i64())
	s.HeapBytes = d.u32()
	s.StackBytes = d.u32()
	s.FreeBytes = d.u32()
	s.Running = int32(d.u32())
	n := d.sliceCount(50)
	if n > 0 {
		s.Tasks = make([]telemetry.TaskSample, n)
	}
	for j := range s.Tasks {
		t := &s.Tasks[j]
		t.ID = int32(d.u32())
		t.Name = d.str()
		t.State = d.str()
		t.RunCycles = d.u64()
		t.KernelCycles = d.u64()
		t.StackUsed = d.u16()
		t.StackPeak = d.u16()
		t.StackAlloc = d.u16()
		t.HeapBytes = d.u16()
		t.Traps = d.u64()
		t.Relocations = int(d.i64())
		t.Switches = int(d.i64())
		t.EnergyPJ = d.u64()
	}
	s.EnergyPJ = d.u64()
	s.EnergyCPUActivePJ = d.u64()
	s.EnergyCPUSleepPJ = d.u64()
	s.EnergyRadioPJ = d.u64()
	s.EnergyUARTPJ = d.u64()
	s.EnergyADCPJ = d.u64()
	s.EnergyTimerPJ = d.u64()
}

// --- energy ---

func (e *enc) energyState(st *energy.MeterState) {
	e.u64(st.SleepCycles)
	e.u64(st.RadioBytes)
	e.u64(st.RadioCycles)
	e.u64(st.UARTBytes)
	e.u64(st.UARTCycles)
	e.u64(st.ADCConvs)
	e.u64(st.ADCCycles)
	e.u64(st.TimerCycles)
	e.bool(st.TimerOn)
	e.u64(st.TimerSince)
}

func (d *dec) energyState() *energy.MeterState {
	st := &energy.MeterState{}
	st.SleepCycles = d.u64()
	st.RadioBytes = d.u64()
	st.RadioCycles = d.u64()
	st.UARTBytes = d.u64()
	st.UARTCycles = d.u64()
	st.ADCConvs = d.u64()
	st.ADCCycles = d.u64()
	st.TimerCycles = d.u64()
	st.TimerOn = d.bool()
	st.TimerSince = d.u64()
	return st
}

// --- profile ---

func (e *enc) profilerState(st *profile.ProfilerState) {
	e.u64(st.ClockHz)
	e.u64(st.StackInterval)
	e.i64(int64(st.StackRing))
	e.i64(int64(st.WatchLimit))
	e.u64(st.Now)
	e.u64(st.Idle)
	e.u64(st.Switches)
	e.u64(st.Compaction)
	e.u64(st.Boot)
	e.u32(uint32(st.Cur))
	e.count(len(st.Tasks))
	for i := range st.Tasks {
		t := &st.Tasks[i]
		e.u32(uint32(t.ID))
		e.str(t.Name)
		e.u16(t.PL)
		e.u16(t.PH)
		e.u16(t.PU)
		e.count(len(t.PCs))
		for _, pcc := range t.PCs {
			e.u32(pcc.PC)
			e.u64(pcc.Cycles)
		}
		e.u64x16(t.Svc)
		e.u64(t.Reloc)
		e.u64(t.Intr)
		e.u64(t.NextSample)
		e.count(len(t.Ring))
		for _, smp := range t.Ring {
			e.u64(smp.Cycle)
			e.u16(smp.SP)
			e.u32(smp.Used)
		}
		e.i64(int64(t.RingPos))
		e.bool(t.Wrapped)
		e.u64(t.Samples)
		e.u32(t.Peak)
		e.count(len(t.Relocs))
		for _, r := range t.Relocs {
			e.u64(r.Cycle)
			e.u32(r.PC)
			e.u64(r.Granted)
			e.u64(r.Cycles)
		}
	}
	e.count(len(st.Watches))
	for _, w := range st.Watches {
		e.u16(w.Addr)
		e.u16(w.Len)
		e.bool(w.Read)
		e.bool(w.Write)
	}
	e.count(len(st.Hits))
	for _, h := range st.Hits {
		e.u64(h.Cycle)
		e.u32(uint32(h.Task))
		e.u32(h.PC)
		e.u16(h.Addr)
		e.bool(h.Write)
	}
	e.u64(st.DroppedHits)
}

func (d *dec) profilerState() *profile.ProfilerState {
	st := &profile.ProfilerState{}
	st.ClockHz = d.u64()
	st.StackInterval = d.u64()
	st.StackRing = int(d.i64())
	st.WatchLimit = int(d.i64())
	st.Now = d.u64()
	st.Idle = d.u64()
	st.Switches = d.u64()
	st.Compaction = d.u64()
	st.Boot = d.u64()
	st.Cur = int32(d.u32())
	n := d.sliceCount(64)
	if n > 0 {
		st.Tasks = make([]profile.TaskProfState, n)
	}
	for i := range st.Tasks {
		t := &st.Tasks[i]
		t.ID = int32(d.u32())
		t.Name = d.str()
		t.PL = d.u16()
		t.PH = d.u16()
		t.PU = d.u16()
		m := d.sliceCount(12)
		if m > 0 {
			t.PCs = make([]profile.PCCount, m)
			for j := range t.PCs {
				t.PCs[j].PC = d.u32()
				t.PCs[j].Cycles = d.u64()
			}
		}
		t.Svc = d.u64x16()
		t.Reloc = d.u64()
		t.Intr = d.u64()
		t.NextSample = d.u64()
		m = d.sliceCount(14)
		if m > 0 {
			t.Ring = make([]profile.StackSample, m)
			for j := range t.Ring {
				t.Ring[j].Cycle = d.u64()
				t.Ring[j].SP = d.u16()
				t.Ring[j].Used = d.u32()
			}
		}
		t.RingPos = int(d.i64())
		t.Wrapped = d.bool()
		t.Samples = d.u64()
		t.Peak = d.u32()
		m = d.sliceCount(28)
		if m > 0 {
			t.Relocs = make([]profile.RelocMark, m)
			for j := range t.Relocs {
				t.Relocs[j].Cycle = d.u64()
				t.Relocs[j].PC = d.u32()
				t.Relocs[j].Granted = d.u64()
				t.Relocs[j].Cycles = d.u64()
			}
		}
	}
	n = d.sliceCount(6)
	if n > 0 {
		st.Watches = make([]profile.Watchpoint, n)
		for i := range st.Watches {
			st.Watches[i].Addr = d.u16()
			st.Watches[i].Len = d.u16()
			st.Watches[i].Read = d.bool()
			st.Watches[i].Write = d.bool()
		}
	}
	n = d.sliceCount(19)
	if n > 0 {
		st.Hits = make([]profile.WatchHit, n)
		for i := range st.Hits {
			st.Hits[i].Cycle = d.u64()
			st.Hits[i].Task = int32(d.u32())
			st.Hits[i].PC = d.u32()
			st.Hits[i].Addr = d.u16()
			st.Hits[i].Write = d.bool()
		}
	}
	st.DroppedHits = d.u64()
	return st
}
