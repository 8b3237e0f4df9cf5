package mcu

import (
	"crypto/sha256"
	"errors"
	"fmt"
)

// Capture/restore errors. Capture refuses state it cannot serialize; restore
// refuses state that does not fit the machine it is applied to.
var (
	// ErrCustomADCSource: a machine with a caller-installed ADC source
	// closure cannot be checkpointed — the closure's state is opaque.
	ErrCustomADCSource = errors.New("mcu: cannot capture state with a custom ADC source installed")
	// ErrArmedInjector: an armed fault-injection hook is a pending
	// side effect the snapshot cannot carry.
	ErrArmedInjector = errors.New("mcu: cannot capture state with an armed fault injector")
	// ErrImageMismatch: the restore target's flash contents differ from the
	// image the snapshot was taken against.
	ErrImageMismatch = errors.New("mcu: flash image differs from snapshot's")
	// ErrSnapshotDataSize: the snapshot's data segment is not DataSize bytes,
	// so it was taken against a different memory geometry (or truncated).
	ErrSnapshotDataSize = errors.New("mcu: snapshot data segment size mismatch")
	// ErrSamplerMismatch: the restore target's telemetry sampling interval
	// differs from the snapshot's, so the restored sample schedule would not
	// reproduce the source run's boundaries.
	ErrSamplerMismatch = errors.New("mcu: telemetry interval differs from snapshot's")
)

// DeviceState is the serializable peripheral state of a Machine.
type DeviceState struct {
	NextEvent uint64

	T0BaseCycle uint64
	T0BaseCount uint16
	T0Prescale  uint32

	ADCBusyUntil uint64
	ADCPending   bool
	ADCLFSR      uint16

	UARTBusyUntil uint64
	UARTPendingB  byte
	UARTPending   bool
	UARTOut       []byte

	RadioBusyUntil uint64
	RadioPendingB  byte
	RadioPending   bool
	RadioOut       []RadioFrame
	RadioIn        []byte
}

// MachineState is the complete serializable execution state of a Machine,
// excluding the program image: flash (and its derived micro-op cache) is
// validated by hash instead of carried, so a restore target must have the
// same programs deployed — which it reuses, optionally copy-on-write shared
// via AdoptImage.
type MachineState struct {
	Data  []byte // all DataSize bytes: registers, I/O space, SRAM
	PC    uint32
	Cycle uint64
	Idle  uint64
	Insts uint64

	Sleeping  bool
	FaultKind uint8
	FaultPC   uint32
	FaultAddr uint16
	FaultNote string
	Pending   uint8
	Stepwise  bool

	GuardLo, GuardHi uint16
	GuardOn          bool

	SampleEvery uint64
	SampleNext  uint64

	CodeEnd   uint32
	FlashHash [32]byte

	Dev DeviceState
}

// flashHash digests the current flash contents (little-endian words).
func (m *Machine) flashHash() [32]byte {
	h := sha256.New()
	var buf [512]byte
	for i := 0; i < FlashWords; i += 256 {
		for j, w := range m.flash[i : i+256] {
			buf[2*j] = byte(w)
			buf[2*j+1] = byte(w >> 8)
		}
		h.Write(buf[:])
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// CaptureState snapshots the machine's execution and device state. It is
// read-only — capturing never perturbs the run — and deep-copies every
// buffer, so the returned state stays valid while the machine keeps running.
// It fails if unserializable hooks are attached (custom ADC source, armed
// fault injector).
func (m *Machine) CaptureState() (*MachineState, error) {
	if m.dev.adcSource != nil {
		return nil, ErrCustomADCSource
	}
	if m.injects != 0 {
		return nil, ErrArmedInjector
	}
	st := &MachineState{
		Data:      append([]byte(nil), m.data[:]...),
		PC:        m.pc,
		Cycle:     m.cycle,
		Idle:      m.idle,
		Insts:     m.insts,
		Sleeping:  m.sleeping,
		Pending:   m.pending,
		Stepwise:  m.stepwise,
		GuardLo:   m.guardLo,
		GuardHi:   m.guardHi,
		GuardOn:   m.guardOn,
		CodeEnd:   m.codeEnd,
		FlashHash: m.flashHash(),
		Dev: DeviceState{
			NextEvent:      m.dev.nextEvent,
			T0BaseCycle:    m.dev.t0BaseCycle,
			T0BaseCount:    m.dev.t0BaseCount,
			T0Prescale:     m.dev.t0Prescale,
			ADCBusyUntil:   m.dev.adcBusyUntil,
			ADCPending:     m.dev.adcPending,
			ADCLFSR:        m.dev.adcLFSR,
			UARTBusyUntil:  m.dev.uartBusyUntil,
			UARTPendingB:   m.dev.uartPendingB,
			UARTPending:    m.dev.uartPending,
			UARTOut:        append([]byte(nil), m.dev.uartOut...),
			RadioBusyUntil: m.dev.radioBusyUntil,
			RadioPendingB:  m.dev.radioPendingB,
			RadioPending:   m.dev.radioPending,
			RadioOut:       append([]RadioFrame(nil), m.dev.radioOut...),
			RadioIn:        append([]byte(nil), m.dev.radioIn...),
		},
	}
	if i := m.sampler(); i >= 0 {
		st.SampleEvery, st.SampleNext = m.hooks[i].every, m.hooks[i].at
	}
	if m.fault != nil {
		st.FaultKind = uint8(m.fault.Kind)
		st.FaultPC = m.fault.PC
		st.FaultAddr = m.fault.Addr
		st.FaultNote = m.fault.Note
	}
	return st, nil
}

// RestoreState applies a captured state to m, which must already hold the
// identical program image the snapshot was taken against (validated by
// hash — flash itself is not part of the state). Every buffer is deep-copied
// out of st, so neither the machine nor a caller-held snapshot aliases the
// other afterward. Attached hooks (trap handler, recorder, profiler,
// deadline queue) are left as wired by the machine's constructor; only the
// sample entry's schedule is restored, and its period must match the
// snapshot's.
func (m *Machine) RestoreState(st *MachineState) error {
	if len(st.Data) != DataSize {
		return fmt.Errorf("%w: %d bytes, want %d", ErrSnapshotDataSize, len(st.Data), DataSize)
	}
	if st.FlashHash != m.flashHash() {
		return ErrImageMismatch
	}
	smp := m.sampler()
	if smp >= 0 && m.hooks[smp].every != st.SampleEvery {
		return fmt.Errorf("%w: target %d, snapshot %d",
			ErrSamplerMismatch, m.hooks[smp].every, st.SampleEvery)
	}
	copy(m.data[:], st.Data)
	m.pc = st.PC & (FlashWords - 1)
	m.cycle = st.Cycle
	m.idle = st.Idle
	m.insts = st.Insts
	m.sleeping = st.Sleeping
	if st.FaultKind != 0 {
		m.fault = &Fault{Kind: FaultKind(st.FaultKind), PC: st.FaultPC,
			Addr: st.FaultAddr, Note: st.FaultNote}
	} else {
		m.fault = nil
	}
	m.pending = st.Pending
	m.stepwise = st.Stepwise
	m.guardLo, m.guardHi, m.guardOn = st.GuardLo, st.GuardHi, st.GuardOn
	if smp >= 0 {
		m.hooks[smp].at = st.SampleNext
		m.syncHookAt()
	}
	m.codeEnd = st.CodeEnd
	// The block cache is derived state, like the micro-op cache: the restore
	// target may have been running unrelated code (its flash merely hashes
	// equal now), so drop every translated block and landing counter rather
	// than trust them. They rebuild from scratch, exactly as uops refetch.
	if m.xl != nil {
		m.xl.reset()
	}
	m.dev = devices{
		nextEvent:      st.Dev.NextEvent,
		t0BaseCycle:    st.Dev.T0BaseCycle,
		t0BaseCount:    st.Dev.T0BaseCount,
		t0Prescale:     st.Dev.T0Prescale,
		adcBusyUntil:   st.Dev.ADCBusyUntil,
		adcPending:     st.Dev.ADCPending,
		adcLFSR:        st.Dev.ADCLFSR,
		uartBusyUntil:  st.Dev.UARTBusyUntil,
		uartPendingB:   st.Dev.UARTPendingB,
		uartPending:    st.Dev.UARTPending,
		uartOut:        append([]byte(nil), st.Dev.UARTOut...),
		radioBusyUntil: st.Dev.RadioBusyUntil,
		radioPendingB:  st.Dev.RadioPendingB,
		radioPending:   st.Dev.RadioPending,
		radioOut:       append([]RadioFrame(nil), st.Dev.RadioOut...),
		radioIn:        append([]byte(nil), st.Dev.RadioIn...),
	}
	return nil
}
