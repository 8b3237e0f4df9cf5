package mcu

import (
	"cmp"
	"slices"
)

// HookKind says where an armed deadline fires. Every kind fires at the
// first instruction boundary at or after its at, on every engine: the
// earliest deadline is part of the run loop's horizon, so the fast loop stops
// there and no fused block crosses it. Arming an entry never changes what
// the run computes.
type HookKind uint8

const (
	// HookSample entries fire at the top of RunUntil's outer loop, ahead of
	// any checkpoint due at the same boundary. A machine holds at most one:
	// arming another replaces it, and its schedule is part of MachineState.
	HookSample HookKind = iota
	// HookCheckpoint entries fire at the top of RunUntil's outer loop, after
	// a due sample.
	HookCheckpoint
	// HookInject entries fire inside Step, after device sync and before
	// interrupt delivery: once one is due, RunUntil routes the next
	// instruction through Step (mustStep). While any is pending,
	// CaptureState refuses with ErrArmedInjector.
	HookInject
)

// hook is one entry of the machine's deadline queue.
type hook struct {
	at    uint64 // deadline; for a periodic entry, its next period mark
	every uint64 // period, or 0 for a one-shot entry
	seq   uint64 // arm count: a firing pass skips entries armed during it
	kind  HookKind
	fn    func(at uint64)
}

// Arm queues fn to run once the clock reaches at, where kind says. A
// one-shot entry is dequeued before fn runs and gets at. A periodic entry
// (every > 0) fires once for the latest period mark the clock has crossed,
// so a long sleep yields one call, not a catch-up flood, and fn gets that
// mark. Entries due together fire in (at, arm order), a sample first. An
// entry armed from inside a callback fires no earlier than the next boundary.
func (m *Machine) Arm(kind HookKind, at, every uint64, fn func(at uint64)) {
	if kind == HookSample {
		m.Cancel(HookSample)
	}
	m.hooks = append(m.hooks, hook{at: at, every: every, seq: m.hookSeq, kind: kind, fn: fn})
	m.hookSeq++
	m.hookAt = min(m.hookAt, at)
	m.syncHorizon()
}

// Cancel drops every pending entry of the given kind.
func (m *Machine) Cancel(kind HookKind) {
	m.hooks = slices.DeleteFunc(m.hooks, func(e hook) bool { return e.kind == kind })
	m.syncHookAt()
}

// syncHookAt refreshes the cached earliest deadline the run loop tests.
func (m *Machine) syncHookAt() {
	m.hookAt = noEvent
	for _, e := range m.hooks {
		m.hookAt = min(m.hookAt, e.at)
	}
	m.syncHorizon()
}

// syncHorizon refreshes the fast loop's stop cycle from its two inputs.
func (m *Machine) syncHorizon() { m.horizon = min(m.dev.nextEvent, m.hookAt) }

// armed returns the index of the first pending entry of the given kind, or
// -1.
func (m *Machine) armed(kind HookKind) int {
	return slices.IndexFunc(m.hooks, func(e hook) bool { return e.kind == kind })
}

// fireDue runs the entries due now: the inject entries when inject is set
// (from Step), the sample and checkpoint entries otherwise (from RunUntil's
// outer loop), lowest (kind, at, arm order) first. Entries armed while the
// pass runs wait for the next one.
func (m *Machine) fireDue(inject bool) {
	fence := m.hookSeq
	for {
		next := -1
		for i, e := range m.hooks {
			if e.at > m.cycle || e.seq >= fence || (e.kind == HookInject) != inject {
				continue
			}
			if next < 0 || cmp.Or(cmp.Compare(e.kind, m.hooks[next].kind), cmp.Compare(e.at, m.hooks[next].at)) < 0 {
				next = i
			}
		}
		if next < 0 {
			return
		}
		e := m.hooks[next]
		at := e.at
		if e.every != 0 {
			at += (m.cycle - at) / e.every * e.every
			m.hooks[next].at = at + e.every
		} else {
			m.hooks = slices.Delete(m.hooks, next, next+1)
		}
		m.syncHookAt()
		e.fn(at)
	}
}

// mustStep reports whether the run loop has to take the checked Step path:
// a fault, sleep or pending interrupt to examine, stepwise mode, a
// per-instruction profiler, or an entry due. Once the outer loop has fired
// the sample and checkpoint entries due, an entry still due is an inject
// entry, which fires in Step, or one a callback armed during that pass,
// which waits for the next boundary; one Step gets to it exactly as the
// checked loop does. Block chaining re-checks this after every kernel trap,
// because a trap service can leave any of it behind or bring an entry due.
func (m *Machine) mustStep() bool {
	return m.fault != nil || m.sleeping || m.pending != 0 ||
		m.stepwise || m.prof.Instr != nil || m.cycle >= m.hookAt
}
