package experiment

import (
	"bytes"
	"testing"

	"repro/internal/energy"
	"repro/internal/kernel"
	"repro/internal/mcu"
	"repro/internal/profile"
	"repro/internal/progs"
	"repro/internal/trace"
)

// translationModes configures one machine per interpreter mode under test:
// the fully-checked stepwise loop, the per-op event-horizon fast loop
// (translation off), and basic-block translation forced on (threshold 1, so
// every block fuses on its first landing) plus at the default threshold.
var translationModes = []struct {
	name  string
	setup func(m *mcu.Machine)
}{
	{"stepwise", func(m *mcu.Machine) { m.SetStepwise(true); m.SetTranslation(-1) }},
	{"fast", func(m *mcu.Machine) { m.SetTranslation(-1) }},
	{"fused-1", func(m *mcu.Machine) { m.SetTranslation(1) }},
	{"fused-default", func(m *mcu.Machine) { m.SetTranslation(0) }},
}

// TestTranslatedSuiteIdentity extends the fast-vs-stepwise identity suite to
// block translation: all seven kernel benchmarks run under every interpreter
// mode and must simulate identical cycles, idle cycles, retired instructions,
// and energy ledgers. The threshold-1 runs must actually dispatch fused
// blocks, or the mode proves nothing.
func TestTranslatedSuiteIdentity(t *testing.T) {
	for _, kb := range progs.KernelBenchmarks() {
		t.Run(kb.Name, func(t *testing.T) {
			type outcome struct {
				cycles, idle, insts uint64
				energy              energy.Breakdown
			}
			var want outcome
			for i, mode := range translationModes {
				m := mcu.New()
				mode.setup(m)
				meter := new(energy.Meter)
				run, err := runSenSmartOn(m, kernel.Config{Energy: meter}, 4_000_000_000, kb.Program.Clone())
				if err != nil {
					t.Fatalf("%s: %v", mode.name, err)
				}
				got := outcome{
					cycles: run.Cycles,
					idle:   run.Idle,
					insts:  m.Instructions(),
					energy: meter.Report(run.Cycles),
				}
				if i == 0 {
					want = got
					continue
				}
				if got != want {
					t.Errorf("%s diverged from stepwise:\n got %+v\nwant %+v", mode.name, got, want)
				}
				if mode.name == "fused-1" {
					if st := m.TranslationStats(); st.FusedDispatches == 0 {
						t.Errorf("fused-1 dispatched no blocks: %+v", st)
					}
				}
			}
		})
	}
}

// TestTranslationObserverByteIdentity pins the observer contract. A trace
// recorder does not force the checked Step path, so the traced stream must be
// byte-identical whether it was produced by fused blocks, the fast loop, or
// stepwise execution. A profiler does force Step, so its output must not
// change with translation on or off — fused blocks must never leak into a
// profiled run.
func TestTranslationObserverByteIdentity(t *testing.T) {
	workload := tracedWorkload(t)

	tracedBytes := func(threshold int, stepwise bool) ([]byte, uint64) {
		t.Helper()
		rec := trace.New()
		m := mcu.New()
		m.SetTranslation(threshold)
		m.SetStepwise(stepwise)
		if _, err := runSenSmartOn(m, kernel.Config{Trace: rec}, 4_000_000_000,
			workload[0].Clone(), workload[1].Clone()); err != nil {
			t.Fatal(err)
		}
		return rec.Encode(), m.TranslationStats().FusedInsts
	}
	fused, fusedInsts := tracedBytes(1, false)
	fast, _ := tracedBytes(-1, false)
	stepwise, _ := tracedBytes(-1, true)
	if fusedInsts == 0 {
		t.Error("the traced run with translation on executed no fused blocks")
	}
	if !bytes.Equal(fused, stepwise) {
		t.Errorf("trace streams differ fused vs stepwise (%d vs %d bytes)", len(fused), len(stepwise))
	}
	if !bytes.Equal(fast, stepwise) {
		t.Errorf("trace streams differ fast vs stepwise (%d vs %d bytes)", len(fast), len(stepwise))
	}

	profBytes := func(threshold int) []byte {
		t.Helper()
		prof := profile.New(profile.Options{})
		m := mcu.New()
		m.SetTranslation(threshold)
		if _, err := runSenSmartOn(m, kernel.Config{Profile: prof}, 4_000_000_000,
			workload[0].Clone(), workload[1].Clone()); err != nil {
			t.Fatal(err)
		}
		var pb bytes.Buffer
		if err := prof.WritePprof(&pb); err != nil {
			t.Fatal(err)
		}
		return pb.Bytes()
	}
	on, off := profBytes(1), profBytes(-1)
	if len(on) == 0 {
		t.Fatal("empty pprof export")
	}
	if !bytes.Equal(on, off) {
		t.Errorf("pprof exports differ with translation on vs off (%d vs %d bytes)", len(on), len(off))
	}
}
