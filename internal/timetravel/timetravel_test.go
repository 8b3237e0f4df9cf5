package timetravel

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/kernel"
	"repro/internal/mcu"
	"repro/internal/snapshot"
	"repro/internal/trace"
)

// counterProg counts a heap byte up to target with a spin delay between
// increments, then parks in a sleep loop so its state stays inspectable for
// the rest of the run.
func counterProg(target int) string {
	return fmt.Sprintf(`
.data
n: .space 1
pad: .space 1
.text
main:
    clr r24
    sts n, r24
loop:
    lds r24, n
    inc r24
    sts n, r24
    rcall delay
    cpi r24, %d
    brne loop
park:
    sleep
    rjmp park
delay:
    ldi r20, 200
spin:
    dec r20
    brne spin
    ret
`, target)
}

// ttFactory builds the deterministic two-task system every test here records
// and replays: task a counts to 150, task b to 200, both with a trace
// recorder and an energy meter attached so seeks restore observer state too.
func ttFactory() (*core.System, error) {
	sys := core.NewSystem(
		core.WithKernelConfig(kernel.Config{InitialStack: 96}),
		core.WithTrace(trace.New()),
		core.WithEnergy(new(energy.Meter)),
	)
	for _, p := range []struct {
		name   string
		target int
	}{{"a", 150}, {"b", 200}} {
		prog, err := sys.CompileString(p.name, counterProg(p.target))
		if err != nil {
			return nil, err
		}
		if _, err := sys.Deploy(prog); err != nil {
			return nil, err
		}
	}
	return sys, nil
}

const ttLimit = 400_000

// ttRecord records the standard run with the given ring config.
func ttRecord(t *testing.T, cfg Config) *Debugger {
	t.Helper()
	d, err := New(ttFactory, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Record(ttLimit); err != nil {
		t.Fatal(err)
	}
	return d
}

// ttReference runs a fresh factory system straight to cycle in checked mode —
// the ground truth every seek must be byte-identical to.
func ttReference(t *testing.T, rearm func(*core.System), cycle uint64) *core.System {
	t.Helper()
	sys, err := ttFactory()
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Boot(); err != nil {
		t.Fatal(err)
	}
	if rearm != nil {
		rearm(sys)
	}
	sys.Machine().SetStepwise(true)
	if cycle > 0 {
		if err := sys.Run(cycle); err != nil {
			t.Fatal(err)
		}
	}
	return sys
}

func encodeState(t *testing.T, sys *core.System) []byte {
	t.Helper()
	st, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := snapshot.Encode(st)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func TestRingCapture(t *testing.T) {
	d := ttRecord(t, Config{Checkpoints: 4, Every: 16_384})
	if d.End() < ttLimit {
		t.Errorf("End() = %d, want >= %d (parked tasks run to the budget)", d.End(), ttLimit)
	}
	cks := d.Checkpoints()
	if len(cks) != 4 {
		t.Fatalf("ring holds %d checkpoints, want capacity 4", len(cks))
	}
	for i := 1; i < len(cks); i++ {
		if cks[i] <= cks[i-1] {
			t.Fatalf("capture cycles not ascending: %v", cks)
		}
	}
	if d.Evicted() == 0 {
		t.Error("a 400k-cycle run at 16k spacing should evict past a 4-slot ring")
	}
	if d.Skipped() != 0 {
		t.Errorf("Skipped() = %d with no injector armed", d.Skipped())
	}
	if cks[0] < ttLimit-4*3*16_384 {
		t.Errorf("oldest retained checkpoint %d is too old for a 4-slot ring", cks[0])
	}
	// Record drops the ring's not-yet-fired slot: running the recorded
	// system on past the recording captures nothing more.
	if err := d.Recorded().Run(ttLimit + 4*16_384); err != nil {
		t.Fatal(err)
	}
	if got := d.Checkpoints(); !slices.Equal(got, cks) {
		t.Errorf("ring moved from %v to %v after the recording ended", cks, got)
	}
}

func TestSeekIdentity(t *testing.T) {
	d := ttRecord(t, Config{Checkpoints: 6, Every: 32_768})
	cks := d.Checkpoints()
	probes := []uint64{
		0,                     // before the oldest checkpoint: boot fallback
		cks[0],                // exactly on a capture boundary
		cks[1] + 1,            // one past a capture boundary
		(cks[2] + cks[3]) / 2, // mid-window
		d.End(),               // the very end
	}
	for _, c := range probes {
		c := c
		t.Run(fmt.Sprintf("cycle%d", c), func(t *testing.T) {
			want := encodeState(t, ttReference(t, nil, c))
			for _, via := range []struct {
				name string
				seek func(uint64) (*Inspector, error)
			}{{"ring", d.Seek}, {"bytes", d.SeekBytes}} {
				insp, err := via.seek(c)
				if err != nil {
					t.Fatalf("%s seek: %v", via.name, err)
				}
				if got := encodeState(t, insp.System()); !bytes.Equal(got, want) {
					t.Errorf("%s seek to %d: landed state differs from straight run", via.name, c)
				}
				if insp.Requested() != c {
					t.Errorf("Requested() = %d, want %d", insp.Requested(), c)
				}
				if insp.Cycle() < c {
					t.Errorf("landed cycle %d before requested %d", insp.Cycle(), c)
				}
			}
		})
	}
}

func TestSeekBaseSelection(t *testing.T) {
	d := ttRecord(t, Config{Checkpoints: 6, Every: 32_768})
	cks := d.Checkpoints()

	insp, err := d.Seek(cks[0] - 1)
	if err != nil {
		t.Fatal(err)
	}
	if base, fromRing := insp.Base(); fromRing {
		t.Errorf("seek before the oldest checkpoint used ring base %d", base)
	}

	insp, err = d.Seek(cks[2] + 5)
	if err != nil {
		t.Fatal(err)
	}
	if base, fromRing := insp.Base(); !fromRing || base != cks[2] {
		t.Errorf("Base() = (%d, %v), want (%d, true)", base, fromRing, cks[2])
	}
}

func TestSeekErrors(t *testing.T) {
	d, err := New(ttFactory, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Seek(0); !errors.Is(err, ErrNotRecorded) {
		t.Errorf("Seek before Record: err = %v, want ErrNotRecorded", err)
	}
	if _, err := d.SeekFirst(func(*Inspector) bool { return true }); !errors.Is(err, ErrNotRecorded) {
		t.Errorf("SeekFirst before Record: err = %v, want ErrNotRecorded", err)
	}
	if err := d.Record(ttLimit); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Seek(d.End() + 1); !errors.Is(err, ErrPastEnd) {
		t.Errorf("Seek past end: err = %v, want ErrPastEnd", err)
	}
	if err := d.Record(ttLimit); err == nil {
		t.Error("second Record did not fail")
	}
	if _, err := New(nil, Config{}); err == nil {
		t.Error("New with nil factory did not fail")
	}
}

func TestRingSkipsArmedInjector(t *testing.T) {
	// The injection fires at cycle 60k; checkpoint slots before that find the
	// injector armed, get refused (mcu.ErrArmedInjector), and are re-armed
	// past it. Replays from boot re-arm the same injection via Rearm.
	const fireAt = 60_000
	rearm := func(sys *core.System) {
		m := sys.Machine()
		m.Arm(mcu.HookInject, fireAt, 0, func(uint64) { m.SetReg(13, m.Reg(13)^0x80) })
	}
	d, err := New(ttFactory, Config{Checkpoints: 4, Every: 16_384, Rearm: rearm})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Record(ttLimit); err != nil {
		t.Fatal(err)
	}
	if d.Skipped() == 0 {
		t.Fatal("no checkpoint slot was skipped while the injector was armed")
	}
	for _, e := range d.ring {
		if e.cycle < fireAt {
			t.Fatalf("ring retains a pre-injection checkpoint at %d", e.cycle)
		}
	}
	// Identity must still hold, both through a ring restore (post-injection
	// state, no rearm involved) and through the boot fallback (Rearm replays
	// the injection). At fireAt+10k the ring holds nothing old enough, so
	// that probe exercises the boot fallback re-firing the injection; the
	// end probe restores from the ring.
	for _, c := range []uint64{fireAt + 10_000, d.End()} {
		want := encodeState(t, ttReference(t, rearm, c))
		insp, err := d.Seek(c)
		if err != nil {
			t.Fatal(err)
		}
		if got := encodeState(t, insp.System()); !bytes.Equal(got, want) {
			t.Errorf("seek to %d with injection: landed state differs from straight run", c)
		}
	}
	// Before the injection fires a snapshot is refused (the armed injector is
	// unserializable), so compare the landed machine word by word instead.
	insp, err := d.Seek(fireAt / 2)
	if err != nil {
		t.Fatal(err)
	}
	ref := ttReference(t, rearm, fireAt/2)
	mi, mr := insp.System().Machine(), ref.Machine()
	if mi.Cycles() != mr.Cycles() || mi.PC() != mr.PC() || mi.SP() != mr.SP() || mi.SREG() != mr.SREG() {
		t.Fatalf("pre-fire seek landed on (cycle %d, pc %#x), straight run on (cycle %d, pc %#x)",
			mi.Cycles(), mi.PC(), mr.Cycles(), mr.PC())
	}
	for a := uint16(0); a < mcu.DataSize; a++ {
		if mi.Peek(a) != mr.Peek(a) {
			t.Fatalf("pre-fire seek: data[%#04x] = %#02x, straight run has %#02x", a, mi.Peek(a), mr.Peek(a))
		}
	}
}

func TestRecordSurfacesCaptureFailure(t *testing.T) {
	// A factory whose telemetry/observer shape is fine but whose checkpoint
	// capture fails is simulated the simple way: arm an injector that never
	// fires, so every capture slot is refused. That exercises the skip path
	// to exhaustion without ever filling the ring.
	rearm := func(sys *core.System) {
		sys.Machine().Arm(mcu.HookInject, ttLimit*2, 0, func(uint64) {})
	}
	d, err := New(ttFactory, Config{Checkpoints: 4, Every: 65_536, Rearm: rearm})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Record(ttLimit); err != nil {
		t.Fatal(err)
	}
	if len(d.Checkpoints()) != 0 {
		t.Errorf("ring holds %d checkpoints under a permanently-armed injector", len(d.Checkpoints()))
	}
	if d.Skipped() == 0 {
		t.Error("no slots recorded as skipped")
	}
	// Seeks still work — everything is a boot-fallback replay.
	if _, err := d.Seek(100_000); err != nil {
		t.Fatal(err)
	}
}
