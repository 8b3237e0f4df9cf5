package experiment

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/snapshot"
	"repro/internal/timetravel"
)

func encodeSys(sys *core.System) ([]byte, error) {
	st, err := sys.Snapshot()
	if err != nil {
		return nil, err
	}
	return snapshot.Encode(st)
}

// seekCheck seeks fixture f's recording to cycle and compares the landed
// system against a straight checked run: snapshot bytes first, then every
// artifact stream. Returns "" on identity.
func seekCheck(f *ckptFixture, cycle uint64, seek func(uint64) (*timetravel.Inspector, error)) (string, error) {
	insp, err := seek(cycle)
	if err != nil {
		return "", fmt.Errorf("seek: %w", err)
	}

	ref, err := ckptSystem(f.name)
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
