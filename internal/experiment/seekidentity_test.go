package experiment

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/progs"
	"repro/internal/snapshot"
	"repro/internal/telemetry"
	"repro/internal/timetravel"
	"repro/internal/trace"
)

func encodeSys(sys *core.System) ([]byte, error) {
	st, err := sys.Snapshot()
	if err != nil {
		return nil, err
	}
	return snapshot.Encode(st)
}

// seekCheck seeks fixture f's recording to cycle and compares the landed
// system against a straight checked run.
func (f *ckptFixture) seekCheck(cycle uint64, seek func(uint64) (*timetravel.Inspector, error)) (string, error) {
	return seekCheck(func() (*core.System, error) { return ckptSystem(f.name) }, cycle, seek)
}

// seekCheck seeks to cycle and compares the landed system against a straight
// checked run of a build() system: snapshot bytes first, then every artifact
// stream. Returns "" on identity.
func seekCheck(build func() (*core.System, error), cycle uint64, seek func(uint64) (*timetravel.Inspector, error)) (string, error) {
	insp, err := seek(cycle)
	if err != nil {
		return "", fmt.Errorf("seek: %w", err)
	}

	ref, err := build()
	if err != nil {
		return "", err
	}
	if err := ref.Boot(); err != nil {
		return "", err
	}
	ref.Machine().SetStepwise(true)
	if err := ref.Run(cycle); err != nil {
		return "", err
	}

	if insp.Cycle() != ref.Machine().Cycles() {
		return fmt.Sprintf("landed on cycle %d, straight run stops at %d", insp.Cycle(), ref.Machine().Cycles()), nil
	}
	gotBlob, err := encodeSys(insp.System())
	if err != nil {
		return "", err
	}
	wantBlob, err := encodeSys(ref)
	if err != nil {
		return "", err
	}
	if !bytes.Equal(gotBlob, wantBlob) {
		return "snapshot bytes diverge from straight run", nil
	}
	got, err := artifactsOf(insp.System())
	if err != nil {
		return "", err
	}
	want, err := artifactsOf(ref)
	if err != nil {
		return "", err
	}
	if d := got.diff(want); d != "" {
		return fmt.Sprintf("%s diverges from straight run", d), nil
	}
	return "", nil
}

// TestSeekFirstAgainstLinearScan pins SeekFirst's bisection on a real
// workload: the first cycle at which the benchmark's UART transcript reaches
// half its final length, verified against an exhaustive boundary-by-boundary
// scan of a straight checked run.
func TestSeekFirstAgainstLinearScan(t *testing.T) {
	f := ckptFixtures(t)[0]
	total := len(f.dbg.Recorded().Machine().UARTOutput())
	if total < 2 {
		t.Skipf("%s transmitted %d UART bytes; need at least 2", f.name, total)
	}
	target := total / 2

	insp, err := f.dbg.SeekFirst(func(in *timetravel.Inspector) bool {
		return len(in.System().Machine().UARTOutput()) >= target
	})
	if err != nil {
		t.Fatal(err)
	}

	ref, err := ckptSystem(f.name)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Boot(); err != nil {
		t.Fatal(err)
	}
	ref.Machine().SetStepwise(true)
	rm := ref.Machine()
	for len(rm.UARTOutput()) < target {
		cur := rm.Cycles()
		if err := ref.Run(cur + 1); err != nil {
			t.Fatal(err)
		}
		if rm.Cycles() == cur {
			t.Fatalf("straight run ended before the UART transcript reached %d bytes", target)
		}
	}
	if insp.Cycle() != rm.Cycles() {
		t.Errorf("SeekFirst landed on cycle %d, linear scan says first-true is %d", insp.Cycle(), rm.Cycles())
	}
}

// TestSeekIdentityUnprofiled seeks recordings of systems observed by a trace
// recorder, a dense telemetry sampler and an energy meter but no profiler,
// so the recording, its checkpoint ring and every replay run on the fused
// engine. Each of five probes per benchmark must land on a state — snapshot
// bytes and every stream, the telemetry NDJSON included — identical to a
// straight checked run's. The profiled identity matrix cannot catch an
// engine-dependent hook: its profiler keeps every run on the checked path.
func TestSeekIdentityUnprofiled(t *testing.T) {
	for _, kb := range progs.KernelBenchmarks() {
		t.Run(kb.Name, func(t *testing.T) {
			build := func() (*core.System, error) {
				return benchSystem(kb.Name,
					core.WithTrace(trace.New()),
					core.WithTelemetry(telemetry.New(telemetry.Options{Every: 777})),
					core.WithEnergy(new(energy.Meter)))
			}
			// Space the ring so every probe replays from a checkpoint: an
			// unobserved run gives the length, which observers do not move.
			plain, err := benchSystem(kb.Name)
			if err == nil {
				err = plain.Boot()
			}
			if err == nil {
				err = plain.Run(ckptLimit)
			}
			if err != nil {
				t.Fatal(err)
			}
			dbg, err := timetravel.New(build, timetravel.Config{Checkpoints: 8, Every: plain.Machine().Cycles() / 7})
			if err != nil {
				t.Fatal(err)
			}
			if err := dbg.Record(ckptLimit); err != nil {
				t.Fatal(err)
			}
			seekRing := func(cycle uint64) (*timetravel.Inspector, error) {
				insp, err := dbg.Seek(cycle)
				if err == nil {
					if _, fromRing := insp.Base(); !fromRing {
						return nil, fmt.Errorf("replayed from boot, not the ring %v", dbg.Checkpoints())
					}
				}
				return insp, err
			}
			for i := uint64(1); i <= 5; i++ {
				cycle := dbg.End() * i / 6
				d, err := seekCheck(build, cycle, seekRing)
				if err != nil {
					t.Fatalf("probe at %d: %v", cycle, err)
				}
				if d != "" {
					t.Errorf("probe at %d: %s", cycle, d)
				}
			}
		})
	}
}
