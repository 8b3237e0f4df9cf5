package mcu

import (
	"errors"
	"strings"
	"testing"
)

// TestInjectorFiresOnceAtCycle checks the armed hook fires at the first
// checked step whose clock reached the arm cycle, then disarms.
func TestInjectorFiresOnceAtCycle(t *testing.T) {
	m := load(t, `
main:
    clr r20
loop:
    inc r20
    rjmp loop
`)
	var fired []uint64
	m.Arm(HookInject, 50, 0, func(uint64) {
		fired = append(fired, m.Cycles())
		m.SetReg(20, 0xAA)
	})
	if err := m.Run(200); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 1 {
		t.Fatalf("injector fired %d times, want 1", len(fired))
	}
	if fired[0] < 50 || fired[0] > 53 {
		t.Errorf("injector fired at cycle %d, want first boundary at/after 50", fired[0])
	}
	if m.injects != 0 || len(m.hooks) != 0 {
		t.Error("injector still armed after firing")
	}
	// The injected register write took effect on live state: r20 kept
	// incrementing from 0xAA afterwards, so it can't still hold the
	// uninjected count.
	if got := m.Reg(20); got < 0xAA-1 {
		t.Errorf("r20 = %#x, injected value did not take effect", got)
	}
}

// TestInjectorChaining pins the inject queue's ordering: entries due at one
// Step fire together in (at, arm order), an entry armed from inside a
// callback waits for the next Step even when it is already due, and a
// callback can chain a later entry.
func TestInjectorChaining(t *testing.T) {
	m := load(t, `
loop:
    nop
    rjmp loop
`)
	type firing struct {
		name         string
		cycle, insts uint64
	}
	var fired []firing
	note := func(name string) func(uint64) {
		return func(uint64) { fired = append(fired, firing{name, m.Cycles(), m.Instructions()}) }
	}
	m.Arm(HookInject, 20, 0, note("b"))
	m.Arm(HookInject, 20, 0, note("c"))
	m.Arm(HookInject, 10, 0, func(at uint64) {
		note("a")(at)
		m.Arm(HookInject, at, 0, note("rearmed"))
		m.Arm(HookInject, at+40, 0, note("chained"))
	})
	if err := m.Run(300); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, f := range fired {
		names = append(names, f.name)
	}
	if got, want := strings.Join(names, ","), "a,rearmed,b,c,chained"; got != want {
		t.Fatalf("fired %s, want %s", got, want)
	}
	a, rearmed, b, c, chained := fired[0], fired[1], fired[2], fired[3], fired[4]
	if rearmed.insts != a.insts+1 {
		t.Errorf("entry armed inside a callback fired after %d instructions, want the next Step (%d)", rearmed.insts, a.insts+1)
	}
	if b.insts != c.insts || b.cycle < 20 {
		t.Errorf("entries due at cycle 20 fired at %+v and %+v, want one Step at/after 20", b, c)
	}
	if chained.cycle < 50 || chained.insts <= c.insts {
		t.Errorf("chained entry fired at %+v, want a Step at/after cycle 50", chained)
	}
	if m.injects != 0 || len(m.hooks) != 0 {
		t.Errorf("queue not drained: %d injects, %d entries", m.injects, len(m.hooks))
	}
}

// TestInjectorDisarmedCycleIdentical checks that arming-then-disarming the
// hook leaves execution cycle-identical to a run that never armed it, and
// that a disarmed machine returns to the fast loop (mirrored by equal
// instruction counts).
func TestInjectorDisarmedCycleIdentical(t *testing.T) {
	src := `
main:
    clr r20
    ldi r16, 200
loop:
    add r20, r16
    dec r16
    brne loop
    break
`
	plain := load(t, src)
	errPlain := plain.Run(0)

	hooked := load(t, src)
	hooked.Arm(HookInject, 30, 0, func(uint64) {}) // no-op injection
	errHooked := hooked.Run(0)

	var f1, f2 *Fault
	if !errors.As(errPlain, &f1) || !errors.As(errHooked, &f2) || f1.Kind != f2.Kind {
		t.Fatalf("stop mismatch: %v vs %v", errPlain, errHooked)
	}
	if plain.Cycles() != hooked.Cycles() {
		t.Errorf("cycles diverge: plain %d, hooked %d", plain.Cycles(), hooked.Cycles())
	}
	if plain.Instructions() != hooked.Instructions() {
		t.Errorf("instruction counts diverge: plain %d, hooked %d",
			plain.Instructions(), hooked.Instructions())
	}
	if plain.Reg(20) != hooked.Reg(20) {
		t.Errorf("r20 diverges: %#x vs %#x", plain.Reg(20), hooked.Reg(20))
	}
}

// TestFaultingPushLeavesSRAMUntouched is the regression test for the
// partial-write audit: a CALL whose two-byte return-address push cannot
// complete must leave both SRAM and SP exactly as they were, so the kernel's
// grow-and-retry replays it from pristine state.
func TestFaultingPushLeavesSRAMUntouched(t *testing.T) {
	m := load(t, `
main:
    call sub
    break
sub:
    ret
`)
	// SP exactly at the guard floor: the first byte of the return-address
	// push is in range, the second is not. Pre-fix this wrote one byte and
	// moved SP before faulting.
	const lo, hi = 0x0400, 0x0500
	m.SetGuard(lo, hi)
	m.SetSP(lo)
	m.Poke(lo, 0x5A) // sentinel where the partial write used to land
	spBefore := m.SP()
	pcBefore := m.PC()

	err := m.Run(100)
	var f *Fault
	if !errors.As(err, &f) || f.Kind != FaultStackOverflow {
		t.Fatalf("expected stack-overflow fault, got %v", err)
	}
	if got := m.Peek(lo); got != 0x5A {
		t.Errorf("SRAM at %#x = %#x, want untouched sentinel 0x5A", lo, got)
	}
	if m.SP() != spBefore {
		t.Errorf("SP moved on faulting push: %#x, want %#x", m.SP(), spBefore)
	}
	if m.PC() != pcBefore {
		t.Errorf("PC advanced on faulting push: %#x, want %#x", m.PC(), pcBefore)
	}

	// After recovery (guard widened, fault cleared), the retried CALL pushes
	// both bytes at the architectural addresses.
	m.ClearFault()
	m.SetGuard(lo-32, hi)
	if err := m.Step(); err != nil {
		t.Fatalf("retried call failed: %v", err)
	}
	if m.SP() != spBefore-2 {
		t.Errorf("retried call SP = %#x, want %#x", m.SP(), spBefore-2)
	}
	// Return address is the word after the 2-word CALL at pc 0, pushed low
	// byte first (so the low byte sits at the higher address).
	if lo8, hi8 := m.Peek(spBefore), m.Peek(spBefore-1); lo8 != 2 || hi8 != 0 {
		t.Errorf("retried call wrote return address %#x%02x, want 0x0002", hi8, lo8)
	}
}

// TestFaultingPopLeavesSPUntouched checks the matching pop-side fix: a RET
// with no frame to pop (SP at the region top) faults without moving SP.
func TestFaultingPopLeavesSPUntouched(t *testing.T) {
	m := load(t, `
main:
    ret
`)
	const lo, hi = 0x0400, 0x0500
	m.SetGuard(lo, hi)
	m.SetSP(hi - 1) // empty stack: pops would read hi, hi+1 — out of region
	spBefore := m.SP()

	err := m.Run(100)
	var f *Fault
	if !errors.As(err, &f) || f.Kind != FaultStackOverflow {
		t.Fatalf("expected stack-overflow fault, got %v", err)
	}
	if m.SP() != spBefore {
		t.Errorf("SP moved on faulting pop: %#x, want %#x", m.SP(), spBefore)
	}
}

// TestPopWordTransactionalSplit pins the half-in-range case: the first pop
// address is inside the region, the second is not; neither byte may be
// consumed.
func TestPopWordTransactionalSplit(t *testing.T) {
	m := load(t, `
main:
    ret
`)
	const lo, hi = 0x0400, 0x0500
	m.SetGuard(lo, hi)
	m.SetSP(hi - 2) // first pop at hi-1 is fine, second at hi faults
	spBefore := m.SP()

	err := m.Run(100)
	var f *Fault
	if !errors.As(err, &f) || f.Kind != FaultStackOverflow {
		t.Fatalf("expected stack-overflow fault, got %v", err)
	}
	if m.SP() != spBefore {
		t.Errorf("SP moved on half-faulting popWord: %#x, want %#x", m.SP(), spBefore)
	}
}

// TestInjectorStackSmash checks an injected return-address corruption is
// honoured by the subsequent RET: the hook mutates SRAM through Poke
// (harness-level, guard-exempt) and execution follows the corrupted address.
func TestInjectorStackSmash(t *testing.T) {
	m := load(t, `
main:
    ldi r16, lo8(0x04F0)
    out SPL, r16
    ldi r16, hi8(0x04F0)
    out SPH, r16
    call sub
    break
sub:
    nop
    nop
    nop
    nop
    ret
`)
	m.SetGuard(0x0400, 0x0500)
	// Corrupt the return address pushed by CALL while inside sub (the CALL
	// completes around cycle 8; the NOPs run 9..12): point it at flash word
	// 0x3F00 (empty flash decodes as a NOP sled from there on).
	m.Arm(HookInject, 10, 0, func(uint64) {
		sp := m.SP()
		m.Poke(sp+1, 0x3F) // hi byte (pushWord order: lo first, hi on top)
		m.Poke(sp+2, 0x00) // lo byte
	})
	// The run ends on the cycle budget, spinning in the NOP sled.
	if err := m.Run(400); err != nil {
		t.Fatal(err)
	}
	if pc := m.PC(); pc < 0x3F00 {
		t.Errorf("corrupted return address not honoured: pc=%#x, want >= 0x3F00", pc)
	}
}
