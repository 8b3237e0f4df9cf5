package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"slices"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/image"
	"repro/internal/mcu"
	"repro/internal/profile"
	"repro/internal/progs"
	"repro/internal/snapshot"
	"repro/internal/telemetry"
	"repro/internal/timetravel"
	"repro/internal/trace"
)

// instance is one workload after set-up: a deck of prepared op inputs with
// their goldens. Ops cycle through the deck in order.
type instance struct {
	deck int
	// op runs op i (input i % deck) and returns what the timed window
	// produced; verify runs after the clock stops.
	op func(i int, tr *tracer) (opResult, error)
}

type opResult struct {
	// insts is the guest AVR instructions the op retired (for a seek, the
	// instructions replayed from the restored checkpoint).
	insts uint64
	// verify compares the op's simulated result with the golden and returns
	// "" when they are identical.
	verify func() string
}

// workload is one seeded input family of the benchmark.
type workload struct {
	name  string
	why   string
	mix   string
	setup func(seed uint64) (*instance, error)
}

var workloads = []workload{
	{
		name: "paper-suite",
		why:  "the paper's evaluation path, interpreter-bound: fused tier, KTRAP service, scheduling and stack relocation",
		mix: fmt.Sprintf("%d kernel-benchmark jobs (7 benchmarks x %d size strata between campaign and paper size) "+
			"and %d Fig. 7 tree-search jobs, shuffled; each op builds, rewrites, deploys, boots and runs one job to completion",
			7*strata, strata, strata),
		setup: setupPaperSuite,
	},
	{
		name: "debug-seek",
		why:  "interactive time travel: construction, snapshot restore and the checked stepwise engine, no fused tier",
		mix: fmt.Sprintf("%d seek targets, one per stratum of the recorded run of the seven co-resident kernel benchmarks; "+
			"ops alternate Seek and SeekBytes, then read registers, SP, a 16-byte memory window and Metrics", seekTargets),
		setup: setupDebugSeek,
	},
	{
		name: "observed-export",
		why:  "an observed, exported run: trace recorder, telemetry, energy and profiler attached, every stream exported and the state snapshotted",
		mix: fmt.Sprintf("the seven kernel benchmarks at campaign size, %d shuffled passes; each op runs one fully observed "+
			"and exports Chrome trace, Recorder.Encode, telemetry NDJSON, pprof and a snapshot", observedPasses),
		setup: setupObservedExport,
	},
}

func findWorkload(name string) (*workload, bool) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

func newRNG(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, 0x5e45a47)) }

// strata is how many size strata each paper-suite benchmark is drawn from;
// stratifying keeps the deck's cost distribution close to the same for
// every seed, so run-to-run spread comes from the host, not the draw.
const strata = 8

// Tree-search job shape (Fig. 7): six trees per task, tasks admitted with
// a 64-byte initial stack until SRAM is full.
const (
	treeCandidates = 40
	treeSearches   = 40
	treeMinNodes   = 8
	treeMaxNodes   = 40
)

// stratum draws a value in stratum s of strata between lo and hi.
func stratum(rng *rand.Rand, s int, lo, hi float64) float64 {
	return lo + (float64(s)+rng.Float64())/strata*(hi-lo)
}

func setupPaperSuite(seed uint64) (*instance, error) {
	rng := newRNG(seed)
	var jobs []*job
	for _, kb := range kernelBenches {
		for s := 0; s < strata; s++ {
			n := int(stratum(rng, s, float64(kb.campaign), float64(kb.paper)))
			jobs = append(jobs, &job{label: fmt.Sprintf("%s(%d)", kb.name, n), progs: []*image.Program{kb.build(n)}})
		}
	}
	for s := 0; s < strata; s++ {
		nodes := int(stratum(rng, s, treeMinNodes, treeMaxNodes))
		j := &job{label: fmt.Sprintf("treesearch(%d nodes)", nodes), admitAll: true}
		base := uint16(rng.Uint32())
		for i := 0; i < treeCandidates; i++ {
			p, err := progs.TreeSearch(progs.TreeSearchParams{
				Trees: 6, NodesPerTree: nodes, Seed: base + uint16(73*i), Searches: treeSearches,
			})
			if err != nil {
				return nil, err
			}
			j.progs = append(j.progs, p)
		}
		jobs = append(jobs, j)
	}
	rng.Shuffle(len(jobs), func(a, b int) { jobs[a], jobs[b] = jobs[b], jobs[a] })

	goldens := make([]*outcome, len(jobs))
	for i, j := range jobs {
		b, err := boot(j, nil)
		if err != nil {
			return nil, err
		}
		b.sys.Machine().SetStepwise(true)
		if err := b.sys.Run(runLimit); err != nil {
			return nil, fmt.Errorf("%s: golden run: %w", j.label, err)
		}
		if j.admitAll && b.admitted == len(j.progs) {
			return nil, fmt.Errorf("%s: all %d candidates admitted; SRAM never filled", j.label, len(j.progs))
		}
		goldens[i] = b.outcome()
	}

	return &instance{deck: len(jobs), op: func(i int, tr *tracer) (opResult, error) {
		j, want := jobs[i%len(jobs)], goldens[i%len(jobs)]
		b, err := boot(j, tr)
		if err != nil {
			return opResult{}, err
		}
		s := tr.beginAlloc("run")
		err = b.sys.Run(runLimit)
		tr.end(s)
		if err != nil {
			return opResult{}, fmt.Errorf("%s: run: %w", j.label, err)
		}
		m := b.sys.Machine()
		if tr != nil {
			ts := m.TranslationStats()
			tr.add("run.insts", float64(m.Instructions()))
			tr.addIdentity("mcu.fused_insts", float64(ts.FusedInsts))
			tr.addIdentity("mcu.blocks_built", float64(ts.Built))
			addIdentityCounts(tr, countsOf(m, &b.sys.Kernel().Stats))
		}
		return opResult{insts: m.Instructions(), verify: func() string { return b.outcome().diff(want) }}, nil
	}}, nil
}

// streamNames labels outcome.Streams for observed-export.
var streamNames = []string{"trace.chrome", "trace.encode", "telemetry.ndjson", "profile.pprof", "snapshot", "metrics"}

// observedPasses is how many shuffled passes over the seven benchmarks
// make up the observed-export deck.
const observedPasses = 4

// observedOp runs j fully observed and exports every stream. It returns
// the booted system and the exported bytes in streamNames order (metrics
// last, rendered by the caller after the clock stops).
func observedOp(j *job, tr *tracer, stepwise bool) (*booted, [][]byte, error) {
	rec := trace.New()
	tel := telemetry.New(telemetry.Options{Ring: 1 << 14})
	prof := profile.New(profile.Options{StackInterval: 8192})
	b, err := boot(j, tr, core.WithTrace(rec), core.WithTelemetry(tel), core.WithProfile(prof), core.WithEnergy(new(energy.Meter)))
	if err != nil {
		return nil, nil, err
	}
	b.sys.Machine().SetStepwise(stepwise)
	s := tr.beginAlloc("observed.run")
	err = b.sys.Run(runLimit)
	tr.end(s)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: run: %w", j.label, err)
	}
	// The engine mode is part of the captured machine state; a golden run
	// on the checked engine exports its snapshot in the default mode.
	b.sys.Machine().SetStepwise(false)
	var chrome, ndjson, pprof bytes.Buffer
	s = tr.beginAlloc("trace.chrome")
	err = b.sys.WriteTrace(&chrome)
	tr.end(s)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: chrome export: %w", j.label, err)
	}
	s = tr.beginAlloc("trace.encode")
	enc := rec.Encode()
	tr.end(s)
	s = tr.beginAlloc("telemetry.ndjson")
	err = tel.WriteNDJSON(&ndjson)
	tr.end(s)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: ndjson export: %w", j.label, err)
	}
	s = tr.beginAlloc("profile.pprof")
	err = prof.WritePprof(&pprof)
	tr.end(s)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: pprof export: %w", j.label, err)
	}
	s = tr.beginAlloc("snapshot.capture")
	st, err := b.sys.Snapshot()
	tr.end(s)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: snapshot: %w", j.label, err)
	}
	s = tr.beginAlloc("snapshot.encode")
	blob, err := snapshot.Encode(st)
	tr.end(s)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: snapshot encode: %w", j.label, err)
	}
	if tr != nil {
		m := b.sys.Machine()
		tr.add("observed.insts", float64(m.Instructions()))
		tr.addIdentity("trace.events", float64(rec.Len()))
		tr.addIdentity("telemetry.samples", float64(tel.Total()))
		tr.addIdentity("trace.chrome.bytes", float64(chrome.Len()))
		tr.addIdentity("snapshot.bytes", float64(len(blob)))
		addIdentityCounts(tr, countsOf(m, &b.sys.Kernel().Stats))
	}
	return b, [][]byte{chrome.Bytes(), enc, ndjson.Bytes(), pprof.Bytes(), blob}, nil
}

// observedOutcome is the gate record of an observed op: the simulated
// outcome plus one hash per exported stream.
func observedOutcome(b *booted, streams [][]byte) *outcome {
	o := b.outcome()
	for _, s := range streams {
		o.Streams = append(o.Streams, hashBytes(s))
	}
	o.Streams = append(o.Streams, hashBytes([]byte(b.sys.Metrics().Render())))
	return o
}

func setupObservedExport(seed uint64) (*instance, error) {
	rng := newRNG(seed)
	jobs := make([]*job, len(kernelBenches))
	goldens := make([]*outcome, len(kernelBenches))
	for i, kb := range kernelBenches {
		jobs[i] = &job{label: kb.name, progs: []*image.Program{kb.build(kb.campaign)}}
		b, streams, err := observedOp(jobs[i], nil, true)
		if err != nil {
			return nil, err
		}
		goldens[i] = observedOutcome(b, streams)
	}
	var deck []int
	for p := 0; p < observedPasses; p++ {
		deck = append(deck, rng.Perm(len(jobs))...)
	}
	return &instance{deck: len(deck), op: func(i int, tr *tracer) (opResult, error) {
		k := deck[i%len(deck)]
		b, streams, err := observedOp(jobs[k], tr, false)
		if err != nil {
			return opResult{}, err
		}
		return opResult{
			insts:  b.sys.Machine().Instructions(),
			verify: func() string { return observedOutcome(b, streams).diff(goldens[k]) },
		}, nil
	}}, nil
}

// seekTargets is the number of seek targets; each lies in its own stratum
// of the recording.
const seekTargets = 64

// seekState is the straight checked run's state at one cycle.
type seekState struct {
	cycle   uint64
	regs    [32]byte
	sp      uint16
	sram    []byte
	metrics uint64
	counts  simCounts
}

func captureSeekState(sys *core.System) seekState {
	m := sys.Machine()
	st := seekState{cycle: m.Cycles(), sp: m.SP(), counts: countsOf(m, &sys.Kernel().Stats)}
	for r := range st.regs {
		st.regs[r] = m.Reg(uint8(r))
	}
	st.sram = sramOf(m)
	st.metrics = hashBytes([]byte(sys.Metrics().Render()))
	return st
}

// diff names the first difference between a landed seek and the straight
// run's state want, or "" when they are identical.
func (s *seekState) diff(want *seekState) string {
	switch {
	case s.cycle != want.cycle:
		return fmt.Sprintf("landed on cycle %d, straight run on %d", s.cycle, want.cycle)
	case s.regs != want.regs || s.sp != want.sp:
		return "registers or SP differ from the straight run"
	case !bytes.Equal(s.sram, want.sram):
		return "SRAM differs from the straight run"
	case s.metrics != want.metrics:
		return "metrics differ from the straight run"
	}
	return ""
}

// sramStart is the first SRAM byte above the register and I/O space.
const sramStart = 0x100

func sramOf(m *mcu.Machine) []byte {
	b := make([]byte, mcu.DataSize-sramStart)
	for i := range b {
		b[i] = m.Peek(uint16(sramStart + i))
	}
	return b
}

// coResident builds the seven paper-size kernel benchmarks deployed on
// one node: the debugger's factory.
func coResident(programs []*image.Program, tr *tracer) (*core.System, error) {
	s := tr.beginAlloc("mcu.new")
	sys := core.NewSystem()
	tr.end(s)
	for _, p := range programs {
		s = tr.begin("rewriter")
		nat, err := sys.Naturalize(p)
		tr.end(s)
		if err != nil {
			return nil, fmt.Errorf("rewrite %s: %w", p.Name, err)
		}
		tr.add("rewriter.words_out", float64(len(nat.Program.Words)))
		s = tr.begin("kernel.boot")
		_, err = sys.Deploy(p)
		tr.end(s)
		if err != nil {
			return nil, fmt.Errorf("deploy %s: %w", p.Name, err)
		}
	}
	return sys, nil
}

func setupDebugSeek(seed uint64) (*instance, error) {
	rng := newRNG(seed)
	var programs []*image.Program
	for _, kb := range kernelBenches {
		programs = append(programs, kb.build(kb.paper))
	}
	// The factory is traced through cur, which the op sets for its
	// duration; set-up's Record and golden runs are untraced.
	var cur *tracer
	dbg, err := timetravel.New(func() (*core.System, error) {
		s := cur.begin("timetravel.factory")
		defer cur.end(s)
		return coResident(programs, cur)
	}, timetravel.Config{})
	if err != nil {
		return nil, err
	}
	if err := dbg.Record(runLimit); err != nil {
		return nil, fmt.Errorf("record: %w", err)
	}
	end := dbg.End()

	type target struct {
		cycle uint64
		peek  uint16
	}
	targets := make([]target, seekTargets)
	for i := range targets {
		targets[i].cycle = 1 + uint64((float64(i)+rng.Float64())/seekTargets*float64(end-1))
		targets[i].peek = uint16(sramStart + rng.IntN(mcu.DataSize-sramStart-16))
	}
	rng.Shuffle(len(targets), func(a, b int) { targets[a], targets[b] = targets[b], targets[a] })

	// One straight checked run visits every target and every replay base
	// (boot and each retained checkpoint) in cycle order.
	ref, err := coResident(programs, nil)
	if err != nil {
		return nil, err
	}
	if err := ref.Boot(); err != nil {
		return nil, err
	}
	ref.Machine().SetStepwise(true)
	states := map[uint64]seekState{}
	bootState := captureSeekState(ref)
	states[bootState.cycle] = bootState
	stops := dbg.Checkpoints()
	for _, t := range targets {
		stops = append(stops, t.cycle)
	}
	slices.Sort(stops)
	landed := map[uint64]uint64{}
	for _, c := range slices.Compact(stops) {
		if err := ref.Run(c); err != nil {
			return nil, fmt.Errorf("straight run to %d: %w", c, err)
		}
		st := captureSeekState(ref)
		states[st.cycle] = st
		landed[c] = st.cycle
	}

	return &instance{deck: len(targets), op: func(i int, tr *tracer) (opResult, error) {
		t := targets[i%len(targets)]
		seek := dbg.Seek
		if (i+i/len(targets))%2 == 1 {
			seek = dbg.SeekBytes
		}
		cur = tr
		s := tr.begin("timetravel.seek")
		insp, err := seek(t.cycle)
		tr.end(s)
		cur = nil
		if err != nil {
			return opResult{}, fmt.Errorf("seek %d: %w", t.cycle, err)
		}
		s = tr.begin("timetravel.inspect")
		regs, sp, peek, met := insp.Registers(), insp.SP(), insp.Mem(t.peek, 16), insp.Metrics()
		tr.end(s)
		baseCycle, fromRing := insp.Base()
		base, okBase := states[baseCycle]
		want := states[landed[t.cycle]]
		replayed := insp.System().Machine().Instructions() - base.counts.insts
		if tr != nil {
			if fromRing {
				tr.addIdentity("timetravel.ring_hits", 1)
			}
			tr.addIdentity("timetravel.replay_cycles", float64(insp.Cycle()-baseCycle))
			addIdentityCounts(tr, want.counts.since(base.counts))
		}
		return opResult{insts: replayed, verify: func() string {
			if !okBase {
				return fmt.Sprintf("seek %d replayed from cycle %d, which the straight run never visited", t.cycle, baseCycle)
			}
			got := seekState{cycle: insp.Cycle(), regs: regs, sp: sp,
				sram: sramOf(insp.System().Machine()), metrics: hashBytes([]byte(met.Render()))}
			if d := got.diff(&want); d != "" {
				return fmt.Sprintf("seek %d: %s", t.cycle, d)
			}
			if !bytes.Equal(peek, want.sram[t.peek-sramStart:t.peek-sramStart+16]) {
				return fmt.Sprintf("seek %d: memory window differs from the straight run", t.cycle)
			}
			return ""
		}}, nil
	}}, nil
}
