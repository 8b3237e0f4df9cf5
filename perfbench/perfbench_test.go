package main

import (
	"encoding/json"
	"io"
	"os"
	"slices"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/image"
	"repro/internal/progs"
)

// TestSmokeWorkloads runs one deck pass of every workload, traced and
// untraced, and requires every op to match its golden.
func TestSmokeWorkloads(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			res, err := runWorkload(w, config{workload: w.name, seed: 7, traced: true}, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || !res.Correct || res.Metrics["error_rate"].Value != 0 {
				t.Fatalf("%d of %d ops failed their golden check", res.Failed, res.Attempted)
			}
			// Each workload exercises its own layers: their spans are non-empty.
			exercised := map[string][]string{
				"paper-suite":     {"run.busy_ms", "rewriter.busy_ms", "mcu.new.alloc_kb", "kernel.relocations"},
				"debug-seek":      {"timetravel.factory.busy_ms", "timetravel.seek.self_ms", "timetravel.replay_cycles", "timetravel.ring_hit_frac"},
				"observed-export": {"trace.chrome.busy_ms", "snapshot.bytes", "observed.run.ns_per_inst", "telemetry.samples"},
			}[w.name]
			for _, name := range exercised {
				if res.Metrics[name].Value <= 0 {
					t.Errorf("%s = %v, want > 0", name, res.Metrics[name].Value)
				}
			}
		})
	}
}

// goldenPair returns the golden (checked stepwise) and fast outcome of one
// kernel benchmark at campaign size, plain or fully observed.
func goldenPair(t *testing.T, observed bool) (golden, fast *outcome) {
	t.Helper()
	kb := kernelBenches[0]
	j := &job{label: kb.name, progs: []*image.Program{kb.build(kb.campaign)}}
	run := func(stepwise bool) *outcome {
		if observed {
			b, streams, err := observedOp(j, nil, stepwise)
			if err != nil {
				t.Fatal(err)
			}
			return observedOutcome(b, streams)
		}
		b, err := boot(j, nil)
		if err != nil {
			t.Fatal(err)
		}
		b.sys.Machine().SetStepwise(stepwise)
		if err := b.sys.Run(runLimit); err != nil {
			t.Fatal(err)
		}
		return b.outcome()
	}
	golden, fast = run(true), run(false)
	if d := fast.diff(golden); d != "" {
		t.Fatalf("unperturbed golden reported a mismatch: %s", d)
	}
	if len(golden.Heap) == 0 || len(golden.Heap[0]) < 2 {
		t.Fatalf("%s: no task heap recorded", kb.name)
	}
	return golden, fast
}

func cloneOutcome(o *outcome) *outcome {
	c := *o
	c.Heap = nil
	for _, h := range o.Heap {
		c.Heap = append(c.Heap, slices.Clone(h))
	}
	c.Exits = slices.Clone(o.Exits)
	c.UART = slices.Clone(o.UART)
	c.Streams = slices.Clone(o.Streams)
	return &c
}

// TestGateCatchesPerturbedGolden perturbs one field of a golden at a time
// and requires the gate to report the op as failed.
func TestGateCatchesPerturbedGolden(t *testing.T) {
	golden, fast := goldenPair(t, false)
	perturb := map[string]func(*outcome){
		"flipped heap word": func(o *outcome) { o.Heap[0][0] ^= 0x01 },
		"one cycle off":     func(o *outcome) { o.Cycles++ },
		"instruction count": func(o *outcome) { o.Insts-- },
		"kernel counter":    func(o *outcome) { o.Stats.BranchTraps++ },
		"exit reason":       func(o *outcome) { o.Exits[0] += "!" },
		"UART byte":         func(o *outcome) { o.UART = append(o.UART, 'x') },
	}
	for name, f := range perturb {
		want := cloneOutcome(golden)
		f(want)
		inst := &instance{deck: 1, op: func(int, *tracer) (opResult, error) {
			return opResult{insts: fast.Insts, verify: func() string { return fast.diff(want) }}, nil
		}}
		var l loop
		opStep(inst, 0, nil, &l, io.Discard)
		if l.failed != 1 {
			t.Errorf("%s: perturbed golden not reported as a mismatch", name)
		}
	}
}

func TestGateCatchesPerturbedStream(t *testing.T) {
	golden, fast := goldenPair(t, true)
	if len(golden.Streams) != len(streamNames) {
		t.Fatalf("%d stream hashes, want %d", len(golden.Streams), len(streamNames))
	}
	for i, name := range streamNames {
		want := cloneOutcome(golden)
		want.Streams[i] ^= 1
		if fast.diff(want) == "" {
			t.Errorf("perturbed %s hash not reported as a mismatch", name)
		}
	}
}

// TestSeekGoldenIsStraightRun pins the debug-seek golden's shortcut: one
// straight checked run stopped at each target in turn lands on the same
// state as an independent straight run to each target, and the seek gate
// catches a perturbed state.
func TestSeekGoldenIsStraightRun(t *testing.T) {
	var programs []*image.Program
	for _, kb := range kernelBenches {
		programs = append(programs, kb.build(kb.paper))
	}
	straight := func(stops ...uint64) []seekState {
		sys, err := coResident(programs, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Boot(); err != nil {
			t.Fatal(err)
		}
		sys.Machine().SetStepwise(true)
		var out []seekState
		for _, c := range stops {
			if err := sys.Run(c); err != nil {
				t.Fatal(err)
			}
			out = append(out, captureSeekState(sys))
		}
		return out
	}
	stops := []uint64{1_000_003, 4_500_017, 9_000_041}
	chunked := straight(stops...)
	for i, c := range stops {
		single := straight(c)[0]
		if d := chunked[i].diff(&single); d != "" {
			t.Fatalf("cycle %d: chunked straight run %s", c, d)
		}
		want := single
		want.sram = slices.Clone(single.sram)
		want.sram[len(want.sram)/2] ^= 0x80
		if chunked[i].diff(&want) == "" {
			t.Errorf("cycle %d: flipped SRAM byte not reported", c)
		}
		want = single
		want.cycle++
		if chunked[i].diff(&want) == "" {
			t.Errorf("cycle %d: cycle off by one not reported", c)
		}
	}
}

// TestBenchmarkSizes pins kernelBenches' two sizes against the campaign
// and paper benchmark lists they are drawn between.
func TestBenchmarkSizes(t *testing.T) {
	campaign := map[string]*image.Program{}
	for _, b := range faultinject.Benchmarks() {
		campaign[b.Name] = b.Program
	}
	paper := map[string]*image.Program{}
	for _, b := range progs.KernelBenchmarks() {
		paper[b.Name] = b.Program
	}
	if len(paper) != len(kernelBenches) {
		t.Fatalf("%d paper benchmarks, kernelBenches has %d", len(paper), len(kernelBenches))
	}
	for _, kb := range kernelBenches {
		if c := campaign[kb.name]; c == nil || !slices.Equal(kb.build(kb.campaign).Words, c.Words) {
			t.Errorf("%s: campaign size %d does not match faultinject.Benchmarks", kb.name, kb.campaign)
		}
		if p := paper[kb.name]; p == nil || !slices.Equal(kb.build(kb.paper).Words, p.Words) {
			t.Errorf("%s: paper size %d does not match progs.KernelBenchmarks", kb.name, kb.paper)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json's workloads and metric lists in
// step with what the program prints.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name string `json:"name"`
		Why  string `json:"why"`
		Unit string `json:"unit"`
	}
	var spec struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var ws []entry
	for _, w := range workloads {
		ws = append(ws, entry{Name: w.name, Why: w.why})
	}
	if !slices.Equal(spec.Workloads, ws) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", spec.Workloads, ws)
	}
	var e2e []entry
	for _, m := range endToEndMetrics(1, &loop{lat: []float64{1}, busy: 1, ops: 1}) {
		e2e = append(e2e, entry{Name: m.name, Unit: m.Unit})
	}
	if !slices.Equal(spec.EndToEnd, e2e) {
		t.Errorf("BENCHMARK.json end_to_end %v, program %v", spec.EndToEnd, e2e)
	}
	var layers []entry
	for _, s := range layerSpecs {
		layers = append(layers, entry{Name: s.name, Unit: s.unit})
	}
	if !slices.Equal(spec.PerLayer, layers) {
		t.Errorf("BENCHMARK.json per_layer %v, program %v", spec.PerLayer, layers)
	}
}
