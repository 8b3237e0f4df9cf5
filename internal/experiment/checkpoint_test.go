package experiment

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/profile"
	"repro/internal/progs"
	"repro/internal/snapshot"
	"repro/internal/telemetry"
	"repro/internal/timetravel"
	"repro/internal/trace"
)

// The identity matrix: for every kernel benchmark, checkpoint at a sampling
// boundary, inside a trap service window, and at pseudo-random cycles, and
// reach each of those states four ways — restore and finish the run (in
// process off a copy-on-write shared image, and through the serialized
// bytes), or seek into a time-travel recording (from the ring and from the
// wire bytes). Every path must be byte-identical to a run that took no
// detour, over the snapshot and all five artifact streams, serially and
// under an 8-way worker pool.

const ckptLimit = 4_000_000_000

// ckptSystem builds a fully observed system — trace recorder, telemetry
// sampler, profiler and energy meter — with the named kernel benchmark
// deployed. Every call uses identical observer options, so snapshots
// transfer between instances.
func ckptSystem(name string) (*core.System, error) {
	sys := core.NewSystem(
		core.WithTrace(trace.New()),
		core.WithTelemetry(telemetry.New(telemetry.Options{Ring: 1 << 14})),
		core.WithProfile(profile.New(profile.Options{StackInterval: 8192})),
		core.WithEnergy(new(energy.Meter)))
	for _, kb := range progs.KernelBenchmarks() {
		if kb.Name == name {
			_, err := sys.Deploy(kb.Program)
			return sys, err
		}
	}
	return nil, fmt.Errorf("unknown benchmark %q", name)
}

// ckptArtifacts is the five byte streams identity is asserted over.
type ckptArtifacts struct {
	metrics []byte
	trace   []byte
	ndjson  []byte
	pprof   []byte
	energy  []byte
}

func artifactsOf(sys *core.System) (ckptArtifacts, error) {
	var a ckptArtifacts
	a.metrics = []byte(sys.Metrics().Render())
	a.trace = sys.Trace().Encode()
	var nb, pb bytes.Buffer
	if err := sys.Telemetry().WriteNDJSON(&nb); err != nil {
		return a, err
	}
	a.ndjson = nb.Bytes()
	if err := sys.Profile().WritePprof(&pb); err != nil {
		return a, err
	}
	a.pprof = pb.Bytes()
	// The energy ledger both raw (every device counter and open-span cursor)
	// and reduced to joules at the final cycle.
	eb, err := json.Marshal(struct {
		State     *energy.MeterState
		Breakdown energy.Breakdown
	}{sys.Energy().CaptureState(), sys.Energy().Report(sys.Machine().Cycles())})
	if err != nil {
		return a, err
	}
	a.energy = eb
	return a, nil
}

// diff names the first diverging stream, or "" when all five match.
func (a ckptArtifacts) diff(b ckptArtifacts) string {
	switch {
	case !bytes.Equal(a.metrics, b.metrics):
		return "Metrics rendering"
	case !bytes.Equal(a.trace, b.trace):
		return "trace encoding"
	case !bytes.Equal(a.ndjson, b.ndjson):
		return "telemetry NDJSON"
	case !bytes.Equal(a.pprof, b.pprof):
		return "pprof bytes"
	case !bytes.Equal(a.energy, b.energy):
		return "energy ledger"
	}
	return ""
}

// ckptPoint is one checkpoint taken during the armed run.
type ckptPoint struct {
	kind  string // "boundary", "midtrap", "rand0".."rand2"
	at    uint64 // nominal arming cycle
	state *snapshot.State
	blob  []byte
}

// ckptFixture is everything the identity matrix needs for one benchmark: the
// uninterrupted baseline, the armed-checkpoint parent (kept alive so children
// can adopt its flash image copy-on-write), the captured points, and a
// time-travel recording of the same run.
type ckptFixture struct {
	name   string
	base   ckptArtifacts
	total  uint64
	parent *core.System
	points []ckptPoint
	dbg    *timetravel.Debugger
}

var ckptFix struct {
	once sync.Once
	list []*ckptFixture
	err  error
}

// ckptFixtures builds (once per test binary) the baseline run, the
// armed-checkpoint run and the recording for all seven benchmarks.
func ckptFixtures(t *testing.T) []*ckptFixture {
	t.Helper()
	ckptFix.once.Do(func() {
		for _, kb := range progs.KernelBenchmarks() {
			f, err := buildCkptFixture(kb.Name)
			if err != nil {
				ckptFix.err = fmt.Errorf("%s: %w", kb.Name, err)
				return
			}
			ckptFix.list = append(ckptFix.list, f)
		}
	})
	if ckptFix.err != nil {
		t.Fatalf("building checkpoint fixtures: %v", ckptFix.err)
	}
	return ckptFix.list
}

// buildCkptFixture runs one benchmark three times. The armed run and the
// recording are the first identity assertions: arming checkpoints, all at
// once or as a ring, must not perturb the trajectory, so their artifacts
// must equal the uninterrupted baseline's.
func buildCkptFixture(name string) (*ckptFixture, error) {
	base, err := ckptSystem(name)
	if err != nil {
		return nil, err
	}
	if err := base.Boot(); err != nil {
		return nil, err
	}
	if err := base.Run(ckptLimit); err != nil {
		return nil, err
	}
	f := &ckptFixture{name: name, total: base.Machine().Cycles()}
	if f.base, err = artifactsOf(base); err != nil {
		return nil, err
	}
	f.points = ckptPoints(name, f.total, base.Trace().Events())

	// Armed run: every checkpoint is pending on one system from the start.
	if f.parent, err = ckptSystem(name); err != nil {
		return nil, err
	}
	var capErr error
	for i := range f.points {
		p := &f.points[i]
		f.parent.ArmCheckpoint(p.at, func(st *snapshot.State, err error) {
			if err != nil {
				capErr = fmt.Errorf("checkpoint %s at %d: %w", p.kind, p.at, err)
			}
			p.state = st
		})
	}
	if err := f.parent.Boot(); err != nil {
		return nil, err
	}
	if err := f.parent.Run(ckptLimit); err != nil {
		return nil, err
	}
	if capErr != nil {
		return nil, capErr
	}
	if err := sameAsBase(f, f.parent, "arming checkpoints"); err != nil {
		return nil, err
	}
	for i := range f.points {
		p := &f.points[i]
		if p.state == nil {
			return nil, fmt.Errorf("checkpoint %s at cycle %d never fired (run ended at %d)", p.kind, p.at, f.total)
		}
		if p.blob, err = snapshot.Encode(p.state); err != nil {
			return nil, fmt.Errorf("encode %s: %w", p.kind, err)
		}
	}

	// The recording: an 8-slot ring sized so early probes fall before the
	// oldest retained checkpoint (boot fallback) and late probes restore
	// from the ring.
	f.dbg, err = timetravel.New(func() (*core.System, error) { return ckptSystem(name) },
		timetravel.Config{Checkpoints: 8, Every: f.total / 12})
	if err == nil {
		err = f.dbg.Record(ckptLimit)
	}
	if err != nil {
		return nil, fmt.Errorf("record: %w", err)
	}
	return f, sameAsBase(f, f.dbg.Recorded(), "arming the ring")
}

// sameAsBase checks a finished run reproduced the baseline's artifacts.
func sameAsBase(f *ckptFixture, sys *core.System, what string) error {
	got, err := artifactsOf(sys)
	if err != nil {
		return err
	}
	if d := got.diff(f.base); d != "" {
		return fmt.Errorf("%s perturbed the run: %s diverges from baseline", what, d)
	}
	return nil
}

// ckptPoints selects the arming cycles for one benchmark from its baseline
// run: a sampler-cadence boundary near the midpoint, a cycle one past a trap
// entry (so the checkpoint arms inside a kernel service window and quantizes
// to the next run-loop boundary), and three pseudo-random cycles seeded from
// the benchmark name.
func ckptPoints(name string, total uint64, events []trace.Event) []ckptPoint {
	const cadence = 65536
	pts := []ckptPoint{{kind: "boundary", at: (total / 2) / cadence * cadence}}

	mid := total / 3 // fallback when no trap window is found
	for i, e := range events {
		if e.Kind != trace.KindTrapEnter || e.Cycle < total/4 {
			continue
		}
		for _, x := range events[i+1:] {
			if x.Kind == trace.KindTrapExit && x.Cycle > e.Cycle+1 {
				mid = e.Cycle + 1
			}
			break
		}
		if mid != total/3 {
			break
		}
	}
	pts = append(pts, ckptPoint{kind: "midtrap", at: mid})

	h := fnv.New64a()
	h.Write([]byte(name))
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	lo, hi := total/10, total*9/10
	for i := 0; i < 3; i++ {
		pts = append(pts, ckptPoint{
			kind: fmt.Sprintf("rand%d", i),
			at:   lo + uint64(rng.Int63n(int64(hi-lo))),
		})
	}

	slices.SortFunc(pts, func(a, b ckptPoint) int {
		switch {
		case a.at < b.at:
			return -1
		case a.at > b.at:
			return 1
		}
		return 0
	})
	// Keep the probe cycles distinct: nudge any collision forward.
	for i := 1; i < len(pts); i++ {
		if pts[i].at <= pts[i-1].at {
			pts[i].at = pts[i-1].at + 1
		}
	}
	return pts
}

// identityPath is one way of reaching a checkpointed state. check returns
// what diverges from the detour-free run, or "".
type identityPath struct {
	name  string
	check func(f *ckptFixture, p *ckptPoint) (string, error)
}

var (
	// restorePaths restore point p into a fresh system and finish the run.
	// restore-adopt restores the in-memory state, sharing the parent's flash
	// image copy-on-write; restore-bytes decodes the blob and restores onto
	// a privately loaded image — the path a -restore from disk takes.
	restorePaths = []identityPath{
		{"restore-adopt", func(f *ckptFixture, p *ckptPoint) (string, error) { return restoreCheck(f, p, false) }},
		{"restore-bytes", func(f *ckptFixture, p *ckptPoint) (string, error) { return restoreCheck(f, p, true) }},
	}
	// seekPaths land the recording on the point's cycle, from the in-memory
	// ring and from the snapshot wire bytes.
	seekPaths = []identityPath{
		{"seek-ring", func(f *ckptFixture, p *ckptPoint) (string, error) { return seekCheck(f, p.at, f.dbg.Seek) }},
		{"seek-bytes", func(f *ckptFixture, p *ckptPoint) (string, error) { return seekCheck(f, p.at, f.dbg.SeekBytes) }},
	}
)

func restoreCheck(f *ckptFixture, p *ckptPoint, fromBytes bool) (string, error) {
	child, err := ckptSystem(f.name)
	if err != nil {
		return "", err
	}
	st := p.state
	if fromBytes {
		if st, err = snapshot.Decode(p.blob); err != nil {
			return "", err
		}
	} else {
		child.AdoptImage(f.parent)
	}
	if err := child.Restore(st); err != nil {
		return "", err
	}
	if err := child.Run(ckptLimit); err != nil {
		return "", err
	}
	got, err := artifactsOf(child)
	if err != nil {
		return "", err
	}
	if d := got.diff(f.base); d != "" {
		return d + " diverges from the uninterrupted run", nil
	}
	return "", nil
}

// identityMatrix checks every (benchmark, point, path) case on workers
// goroutines. Serially, each benchmark is its own subtest.
func identityMatrix(t *testing.T, workers int, paths []identityPath) {
	type job struct {
		f    *ckptFixture
		p    *ckptPoint
		path identityPath
	}
	fixtures := ckptFixtures(t)
	var jobs []job
	for _, f := range fixtures {
		for i := range f.points {
			for _, path := range paths {
				jobs = append(jobs, job{f, &f.points[i], path})
			}
		}
	}
	run := func(j job) (string, error) {
		label := fmt.Sprintf("%s %s/%s at cycle %d", j.f.name, j.p.kind, j.path.name, j.p.at)
		d, err := j.path.check(j.f, j.p)
		if err != nil {
			return "", fmt.Errorf("%s: %w", label, err)
		}
		if d != "" {
			d = label + ": " + d
		}
		return d, nil
	}
	if workers == 1 {
		for _, f := range fixtures {
			t.Run(f.name, func(t *testing.T) {
				for _, j := range jobs {
					if j.f != f {
						continue
					}
					d, err := run(j)
					if err != nil {
						t.Fatal(err)
					}
					if d != "" {
						t.Error(d)
					}
				}
			})
		}
		return
	}
	diffs, err := runPoints(workers, len(jobs), func(i int) (string, error) { return run(jobs[i]) })
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diffs {
		if d != "" {
			t.Error(d)
		}
	}
}

// The four entry points of the identity matrix. The pooled runs exercise
// copy-on-write image sharing and concurrent seeks out of one shared
// debugger; under -race they pin both as race-free.
func TestResumeIdentitySerial(t *testing.T) { identityMatrix(t, 1, restorePaths) }
func TestResumeIdentityPooled(t *testing.T) { identityMatrix(t, 8, restorePaths) }
func TestSeekIdentitySerial(t *testing.T)   { identityMatrix(t, 1, seekPaths) }
func TestSeekIdentityPooled(t *testing.T)   { identityMatrix(t, 8, seekPaths) }

// TestRestoreDoesNotAliasSnapshot scribbles over every mutable buffer of a
// snapshot after restoring from it; the restored run must be unaffected, and
// the snapshot must re-encode to the same bytes it decoded from until the
// scribble. Catches restored systems keeping references into snapshot slices
// (device output buffers, sampler rings, trace events, task registers).
func TestRestoreDoesNotAliasSnapshot(t *testing.T) {
	fixtures := ckptFixtures(t)
	f := fixtures[0]
	p := &f.points[len(f.points)/2]

	st, err := snapshot.Decode(p.blob)
	if err != nil {
		t.Fatal(err)
	}
	child, err := ckptSystem(f.name)
	if err != nil {
		t.Fatal(err)
	}
	if err := child.Restore(st); err != nil {
		t.Fatal(err)
	}

	// Deface everything reachable through the decoded state.
	for i := range st.Machine.Data {
		st.Machine.Data[i] ^= 0xA5
	}
	for i := range st.Machine.Dev.UARTOut {
		st.Machine.Dev.UARTOut[i] ^= 0xA5
	}
	for i := range st.Machine.Dev.RadioOut {
		st.Machine.Dev.RadioOut[i].Byte ^= 0xA5
		st.Machine.Dev.RadioOut[i].Cycle ^= 0xFFFF
	}
	for i := range st.Machine.Dev.RadioIn {
		st.Machine.Dev.RadioIn[i] ^= 0xA5
	}
	for i := range st.Kernel.Tasks {
		tk := &st.Kernel.Tasks[i]
		for j := range tk.Regs {
			tk.Regs[j] ^= 0xA5
		}
		tk.PC ^= 0xFFFF
		tk.ServiceCalls[0] ^= 0xFFFF
	}
	if st.Trace != nil {
		for i := range st.Trace.Events {
			st.Trace.Events[i].Cycle ^= 0xFFFF
			st.Trace.Events[i].Detail = "scribbled"
		}
	}
	if st.Telemetry != nil {
		for i := range st.Telemetry.Samples {
			s := &st.Telemetry.Samples[i]
			s.Cycle ^= 0xFFFF
			for j := range s.Tasks {
				s.Tasks[j].RunCycles ^= 0xFFFF
			}
		}
		for i := range st.Telemetry.TaskNames {
			st.Telemetry.TaskNames[i] = "scribbled"
		}
	}
	if st.Energy != nil {
		st.Energy.SleepCycles ^= 0xFFFF
		st.Energy.RadioCycles ^= 0xFFFF
		st.Energy.UARTBytes ^= 0xFFFF
		st.Energy.TimerSince ^= 0xFFFF
		st.Energy.TimerOn = !st.Energy.TimerOn
	}
	if st.Profile != nil {
		for i := range st.Profile.Tasks {
			tp := &st.Profile.Tasks[i]
			for j := range tp.PCs {
				tp.PCs[j].Cycles ^= 0xFFFF
			}
			for j := range tp.Ring {
				tp.Ring[j].Used ^= 0xFFFF
			}
		}
	}

	if err := child.Run(ckptLimit); err != nil {
		t.Fatal(err)
	}
	if err := sameAsBase(f, child, "scribbling the snapshot after restore"); err != nil {
		t.Error(err)
	}
}

// TestConcurrentAdoptRestore fans eight children out of one parent at once:
// every child adopts the parent's image copy-on-write, restores the same
// in-memory snapshot, and runs to completion on its own goroutine. All eight
// must match the baseline; under -race this pins the shared-image fan-out as
// race-free.
func TestConcurrentAdoptRestore(t *testing.T) {
	fixtures := ckptFixtures(t)
	f := fixtures[len(fixtures)-1]
	p := &f.points[0]

	diffs, err := runPoints(8, 8, func(int) (string, error) { return restoreCheck(f, p, false) })
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range diffs {
		if d != "" {
			t.Errorf("child %d: %s", i, d)
		}
	}
}
