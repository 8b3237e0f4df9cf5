package mcu

import (
	"testing"

	"repro/internal/avr/asm"
)

func samplerMachine(t *testing.T, src string) *Machine {
	t.Helper()
	p, err := asm.Assemble(t.Name(), src)
	if err != nil {
		t.Fatal(err)
	}
	m := New()
	if err := m.LoadFlash(0, p.Words); err != nil {
		t.Fatal(err)
	}
	m.SetSP(0x10FF)
	return m
}

// trapLoopSrc is an ALU loop punctuated by a KTRAP, like kernel-rewritten
// code: each trap is a checked uop, so the fast loop breaks there and the
// outer RunUntil loop — where the sampler check lives — runs regularly.
const trapLoopSrc = `
main:
    ldi r16, 1
loop:
    add r18, r16
    adc r19, r16
    eor r20, r18
    dec r22
    ktrap 7
    rjmp loop
`

// The fast loop runs uninterrupted between checked uops (KTRAPs here, as in
// kernel-rewritten code), so sampling quantizes to those boundaries; with
// the checked Step path (stepwise) it fires at instruction granularity.
// Both must see boundaries exactly once, stamped with the boundary cycle.
func TestSamplerCadence(t *testing.T) {
	for _, stepwise := range []bool{false, true} {
		m := samplerMachine(t, trapLoopSrc)
		m.SetTrapHandler(func(mm *Machine, id uint16) error {
			mm.SetPC(mm.PC() + 2)
			mm.AddCycles(3)
			return nil
		})
		m.SetStepwise(stepwise)
		var got []uint64
		var fired []uint64
		m.Arm(HookSample, 1000, 1000, func(at uint64) {
			got = append(got, at)
			fired = append(fired, m.Cycles())
		})
		if err := m.RunUntil(10_500); err != nil {
			t.Fatal(err)
		}
		if len(got) == 0 {
			t.Fatalf("stepwise=%v: sampler never fired", stepwise)
		}
		for i, at := range got {
			if at%1000 != 0 {
				t.Fatalf("stepwise=%v: sample %d at %d is not a boundary", stepwise, i, at)
			}
			if i > 0 && at <= got[i-1] {
				t.Fatalf("stepwise=%v: boundaries not strictly increasing: %v", stepwise, got)
			}
			if fired[i] < at {
				t.Fatalf("stepwise=%v: fired at cycle %d before boundary %d", stepwise, fired[i], at)
			}
		}
	}
}

// Stepwise execution checks every instruction, so with a small interval it
// must fire on every boundary in order: 1000, 2000, 3000, ...
func TestSamplerStepwiseHitsEveryBoundary(t *testing.T) {
	m := samplerMachine(t, hotLoopSrc)
	m.SetStepwise(true)
	var got []uint64
	m.Arm(HookSample, 1000, 1000, func(at uint64) { got = append(got, at) })
	if err := m.RunUntil(5_100); err != nil {
		t.Fatal(err)
	}
	want := []uint64{1000, 2000, 3000, 4000, 5000}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

// After a long idle stretch (sleep fast-forwards the clock) only the latest
// crossed boundary fires — no catch-up flood.
func TestSamplerCollapsesAfterSleep(t *testing.T) {
	m := samplerMachine(t, hotLoopSrc)
	var got []uint64
	m.Arm(HookSample, 1000, 1000, func(at uint64) { got = append(got, at) })
	m.AddIdleCycles(10_400) // clock jumps over ten boundaries at once
	if err := m.RunUntil(10_500); err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("sampler never fired")
	}
	if got[0] != 10_000 {
		t.Fatalf("first sample at %d, want the latest crossed boundary 10000 (got %v)", got[0], got)
	}
	if len(got) != 1 {
		t.Fatalf("catch-up flood: %v", got)
	}
}

// Cancel drops only the entries of the kind it names.
func TestSamplerDetach(t *testing.T) {
	m := samplerMachine(t, hotLoopSrc)
	fired := map[HookKind]int{}
	count := func(k HookKind) func(uint64) { return func(uint64) { fired[k]++ } }
	m.Arm(HookSample, 1000, 1000, count(HookSample))
	m.Arm(HookCheckpoint, 2000, 0, count(HookCheckpoint))
	m.Arm(HookInject, 3000, 0, count(HookInject))
	m.Cancel(HookSample)
	if err := m.RunUntil(5_000); err != nil {
		t.Fatal(err)
	}
	if fired[HookSample] != 0 || fired[HookCheckpoint] != 1 || fired[HookInject] != 1 {
		t.Fatalf("after cancelling the sampler: fired %v, want only the checkpoint and the injection", fired)
	}
	if len(m.hooks) != 0 || m.hookAt != noEvent {
		t.Fatal("cancel left sampler state armed")
	}
}

// A sampler must not perturb execution: cycles, instructions, and full
// machine state stay identical with and without one attached.
func TestSamplerDoesNotPerturbExecution(t *testing.T) {
	plain := samplerMachine(t, dispatchSrc)
	sampled := samplerMachine(t, dispatchSrc)
	sampled.Arm(HookSample, 512, 512, func(uint64) {})
	const limit = 200_000
	if err := plain.RunUntil(limit); err != nil {
		t.Fatal(err)
	}
	if err := sampled.RunUntil(limit); err != nil {
		t.Fatal(err)
	}
	if plain.Cycles() != sampled.Cycles() || plain.Instructions() != sampled.Instructions() {
		t.Fatalf("sampler perturbed execution: %d/%d cycles, %d/%d insts",
			plain.Cycles(), sampled.Cycles(), plain.Instructions(), sampled.Instructions())
	}
	if plain.PC() != sampled.PC() || plain.SP() != sampled.SP() || plain.SREG() != sampled.SREG() {
		t.Fatal("sampler perturbed CPU state")
	}
	for a := 0; a < DataSize; a++ {
		if plain.data[a] != sampled.data[a] {
			t.Fatalf("sampler perturbed data memory at %#x", a)
		}
	}
}
