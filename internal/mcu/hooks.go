package mcu

import (
	"cmp"
	"slices"
)

// HookKind says where an armed deadline fires.
type HookKind uint8

const (
	// HookSample entries fire at the top of RunUntil's outer loop, ahead of
	// any checkpoint due at the same boundary. A machine holds at most one:
	// arming another replaces it, and its schedule is part of MachineState.
	HookSample HookKind = iota
	// HookCheckpoint entries fire at the top of RunUntil's outer loop, after
	// a due sample. The fast loop never tests either kind, so arming one
	// never changes which engine runs the machine.
	HookCheckpoint
	// HookInject entries fire inside Step, after device sync and before
	// interrupt delivery. While any is pending, Run/RunUntil take the checked
	// Step path and CaptureState refuses with ErrArmedInjector.
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
	switch kind {
	case HookSample:
		m.Cancel(HookSample)
	case HookInject:
		m.injects++
	}
	m.hooks = append(m.hooks, hook{at: at, every: every, seq: m.hookSeq, kind: kind, fn: fn})
	m.hookSeq++
	m.hookAt = min(m.hookAt, at)
}

// Cancel drops every pending entry of the given kind.
func (m *Machine) Cancel(kind HookKind) {
	m.hooks = slices.DeleteFunc(m.hooks, func(e hook) bool { return e.kind == kind })
	if kind == HookInject {
		m.injects = 0
	}
	m.syncHookAt()
}

// syncHookAt refreshes the cached earliest deadline the run loop tests.
func (m *Machine) syncHookAt() {
	m.hookAt = noEvent
	for _, e := range m.hooks {
		m.hookAt = min(m.hookAt, e.at)
	}
}

// sampler returns the index of the HookSample entry, or -1.
func (m *Machine) sampler() int {
	return slices.IndexFunc(m.hooks, func(e hook) bool { return e.kind == HookSample })
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
			if e.kind == HookInject {
				m.injects--
			}
			m.hooks = slices.Delete(m.hooks, next, next+1)
		}
		m.syncHookAt()
		e.fn(at)
	}
}

// mustStep reports whether the run loop has to take the checked Step path:
// a fault, sleep or pending interrupt to examine, stepwise mode, a
// per-instruction profiler, or a pending inject entry.
func (m *Machine) mustStep() bool {
	return m.fault != nil || m.sleeping || m.pending != 0 ||
		m.stepwise || m.prof.Instr != nil || m.injects != 0
}
