package mcu

import (
	"fmt"
	"math/rand"
	"slices"
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

// engines are the three ways RunUntil executes a machine: fused blocks
// (translation on first landing), the per-op fast loop, and checked Step.
var engines = []struct {
	name string
	set  func(*Machine)
}{
	{"fused", func(m *Machine) { m.SetTranslation(1) }},
	{"fast", func(m *Machine) { m.SetTranslation(-1) }},
	{"stepwise", func(m *Machine) { m.SetStepwise(true); m.SetTranslation(-1) }},
}

// firing is one hook callback: the deadline it got, and the clock and
// instruction count it ran at.
type firing struct {
	kind         HookKind
	at           uint64
	cycle, insts uint64
}

// trapHandler is a stand-in kernel: skip the trap's id word, charge 3.
func trapHandler(mm *Machine, id uint16) error {
	mm.SetPC(mm.PC() + 2)
	mm.AddCycles(3)
	return nil
}

// The sampler fires at the first instruction boundary at or after each
// period mark, on every engine: a hook deadline bounds the fast loop's
// horizon and no fused block crosses it. The three engines must therefore
// record the same (at, fired-cycle) list, stamped with the boundary marks.
func TestSamplerCadence(t *testing.T) {
	var want []firing
	for _, eng := range engines {
		m := samplerMachine(t, trapLoopSrc)
		m.SetTrapHandler(trapHandler)
		eng.set(m)
		var got []firing
		m.Arm(HookSample, 1000, 1000, func(at uint64) {
			got = append(got, firing{HookSample, at, m.Cycles(), m.Instructions()})
		})
		if err := m.RunUntil(10_500); err != nil {
			t.Fatal(err)
		}
		if len(got) != 10 {
			t.Fatalf("%s: sampler fired %d times, want one per mark: %v", eng.name, len(got), got)
		}
		for i, f := range got {
			if f.at != uint64(i+1)*1000 || f.cycle < f.at {
				t.Fatalf("%s: sample %d = %+v, want mark %d at or after it", eng.name, i, f, (i+1)*1000)
			}
		}
		if eng.name == "fused" && m.TranslationStats().FusedDispatches == 0 {
			t.Fatal("fused engine dispatched no blocks")
		}
		if want == nil {
			want = got
		} else if !slices.Equal(got, want) {
			t.Fatalf("%s fired %v, fused fired %v", eng.name, got, want)
		}
	}
}

// timerLoopSrc runs Timer0 at clk/1 with its interrupt masked, so a device
// event falls due every 256 cycles on the same boundary as a sampler mark.
const timerLoopSrc = `
main:
    ldi r16, 1
    out TCCR0, r16
loop:
    add r18, r16
    adc r19, r16
    eor r20, r18
    dec r22
    rjmp loop
`

// An entry armed from a callback waits for the next instruction boundary on
// every engine, also when a device event is synced at the boundary that
// fired the callback.
func TestRearmedHookWaitsForNextBoundary(t *testing.T) {
	var want []firing
	for _, eng := range engines {
		m := samplerMachine(t, timerLoopSrc)
		eng.set(m)
		var got []firing
		note := func(kind HookKind, at uint64) {
			got = append(got, firing{kind, at, m.Cycles(), m.Instructions()})
		}
		m.Arm(HookSample, 256, 256, func(at uint64) {
			note(HookSample, at)
			m.Arm(HookCheckpoint, at, 0, func(at uint64) { note(HookCheckpoint, at) })
		})
		if err := m.RunUntil(4_000); err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(got); i += 2 {
			if got[i].kind != HookCheckpoint || got[i].insts != got[i-1].insts+1 {
				t.Fatalf("%s: re-armed entry fired at %+v, want one instruction after %+v", eng.name, got[i], got[i-1])
			}
		}
		if want == nil {
			want = got
		} else if !slices.Equal(got, want) {
			t.Fatalf("%s fired %v, fused fired %v", eng.name, got, want)
		}
	}
}

// Checkpoint and inject entries at seeded random deadlines fire at the same
// boundary on every engine, so injections that rewrite registers and memory
// leave identical end states. Programs with and without kernel traps cover
// the fast loop breaking at a trap, at a device horizon, and at a deadline
// alone.
func TestHookBoundaryEngineIndependent(t *testing.T) {
	progs := []struct {
		name, src string
		trap      bool
	}{
		{"traploop", trapLoopSrc, true},
		{"dispatch", dispatchSrc, false},
		{"hotloop", hotLoopSrc, false},
	}
	for _, p := range progs {
		for seed := int64(1); seed <= 3; seed++ {
			var want []firing
			var ref *Machine
			for _, eng := range engines {
				m := samplerMachine(t, p.src)
				if p.trap {
					m.SetTrapHandler(trapHandler)
				}
				eng.set(m)
				var got []firing
				note := func(kind HookKind) func(uint64) {
					return func(at uint64) {
						got = append(got, firing{kind, at, m.Cycles(), m.Instructions()})
						if kind == HookInject {
							m.SetReg(18, m.Reg(18)^byte(at))
							m.Poke(0x0300+uint16(at%64), byte(m.Cycles()))
						}
					}
				}
				rng := rand.New(rand.NewSource(seed))
				// Injections fall in the first half, so the later checkpoints
				// also cover a queue holding no pending injection.
				for i := 0; i < 12; i++ {
					m.Arm(HookCheckpoint, uint64(rng.Intn(40_000)), 0, note(HookCheckpoint))
					m.Arm(HookInject, uint64(rng.Intn(20_000)), 0, note(HookInject))
				}
				if err := m.RunUntil(50_000); err != nil {
					t.Fatal(err)
				}
				if len(got) != 24 {
					t.Fatalf("%s seed %d %s: %d of 24 entries fired", p.name, seed, eng.name, len(got))
				}
				if want == nil {
					want, ref = got, m
					continue
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%s seed %d: %s fired %v, fused fired %v", p.name, seed, eng.name, got, want)
				}
				requireSameState(t, fmt.Sprintf("%s seed %d %s-vs-fused", p.name, seed, eng.name), m, ref)
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
