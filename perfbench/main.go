// Command perfbench is the repository's end-to-end and per-layer host
// benchmark. It runs one seeded workload as a closed loop — one client,
// one goroutine, the next op issued when the previous one returns — for a
// fixed number of seconds, checks every op's simulated result against a
// golden computed at set-up from the checked stepwise engine, and prints
// every metric by name with its unit. The last line of standard output is
// one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured untraced.
// With --trace 1 each op runs twice, untraced and traced in alternating
// order, and the metrics are the per-layer ones taken from spans around
// each layer call, plus the tracing overhead.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload paper-suite --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 2
//
// The process exits non-zero when any op errs or mismatches its golden.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median.
const setupRepeats = 5

type config struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	outDir   string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "paper-suite, debug-seek, observed-export, or all")
	fs.Uint64Var(&cfg.seed, "seed", 1, "workload seed: the same seed makes the same inputs")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds per run")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	fs.StringVar(&cfg.outDir, "out-dir", "", "directory the traced run writes its spans to (none when empty)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1, got %d\n", trace)
		return 2
	}
	cfg.traced = trace == 1
	fmt.Fprintf(stderr, "perfbench: host nproc=%d GOMAXPROCS=%d %s %s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)

	if cfg.workload == "all" {
		return runAll(cfg, stdout, stderr)
	}
	w, ok := findWorkload(cfg.workload)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", cfg.workload)
		return 2
	}
	res, err := runWorkload(w, cfg, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	printMetrics(stdout, "", res.metrics)
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload untraced and traced and prints every metric;
// its JSON line keys metrics by workload/name.
func runAll(cfg config, stdout, stderr io.Writer) int {
	total := result{Correct: true, Metrics: map[string]metric{}}
	for i := range workloads {
		w := &workloads[i]
		for _, traced := range []bool{false, true} {
			c := cfg
			c.workload, c.traced = w.name, traced
			res, err := runWorkload(w, c, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
				return 1
			}
			printMetrics(stdout, w.name+" ", res.metrics)
			total.Correct = total.Correct && res.Correct
			total.Attempted += res.Attempted
			total.Failed += res.Failed
			for _, m := range res.metrics {
				total.Metrics[w.name+"/"+m.name] = m.metric
			}
		}
	}
	if err := json.NewEncoder(stdout).Encode(total); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if !total.Correct {
		return 1
	}
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type namedMetric struct {
	name string
	metric
}

// result is the JSON line printed last: correct, attempted, failed and
// the metrics by name.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	metrics []namedMetric
}

func printMetrics(w io.Writer, prefix string, ms []namedMetric) {
	for _, m := range ms {
		fmt.Fprintf(w, "%s%-32s %14.6g %s\n", prefix, m.name, m.Value, m.Unit)
	}
}

// loop is what one closed-loop pass measured.
type loop struct {
	lat      []float64 // op latency, ms
	busy     time.Duration
	insts    uint64
	alloc    uint64
	gcCycles uint32
	ops      int
	failed   int
}

// opStep runs op i once, timed, then verifies it with the clock stopped.
// It returns false when the op erred or mismatched its golden.
func opStep(inst *instance, i int, tr *tracer, l *loop, stderr io.Writer) bool {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tr.setOp(i)
	t0 := time.Now()
	root := tr.begin("op")
	res, err := inst.op(i, tr)
	tr.end(root)
	d := time.Since(t0)
	runtime.ReadMemStats(&after)
	l.ops++
	l.lat = append(l.lat, float64(d)/float64(time.Millisecond))
	l.busy += d
	l.alloc += after.TotalAlloc - before.TotalAlloc
	l.gcCycles += after.NumGC - before.NumGC
	if err == nil {
		if d := res.verify(); d != "" {
			err = errors.New(d)
		}
	}
	if err != nil {
		if l.failed < 5 {
			fmt.Fprintf(stderr, "perfbench: op %d failed: %v\n", i, err)
		}
		l.failed++
		return false
	}
	l.insts += res.insts
	return true
}

func runWorkload(w *workload, cfg config, stderr io.Writer) (*result, error) {
	fmt.Fprintf(stderr, "perfbench: workload %s, seed %d, %gs, traced=%v\n  why: %s\n  ops: %s\n",
		w.name, cfg.seed, cfg.seconds, cfg.traced, w.why, w.mix)
	var inst *instance
	setups := make([]float64, 0, setupRepeats)
	for r := 0; r < setupRepeats; r++ {
		inst = nil // let the previous set-up be collected first
		runtime.GC()
		t0 := time.Now()
		var err error
		if inst, err = w.setup(cfg.seed); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	runtime.GC()

	var plain, traced loop
	var tr *tracer
	if cfg.traced {
		tr = newTracer(inst.deck)
	}
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	// At least one full pass over the deck, so every input is measured and
	// the identity counts cover the whole deck.
	for i := 0; i < inst.deck || time.Now().Before(deadline); i++ {
		if !cfg.traced {
			opStep(inst, i, nil, &plain, stderr)
			continue
		}
		if i%2 == 0 {
			opStep(inst, i, nil, &plain, stderr)
			opStep(inst, i, tr, &traced, stderr)
		} else {
			opStep(inst, i, tr, &traced, stderr)
			opStep(inst, i, nil, &plain, stderr)
		}
	}

	res := &result{Attempted: plain.ops + traced.ops, Failed: plain.failed + traced.failed}
	res.Correct = res.Failed == 0
	if cfg.traced {
		res.metrics = layerMetrics(tr, &plain, &traced)
		if cfg.outDir != "" {
			path := filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, cfg.seed))
			header := map[string]any{
				"workload": w.name, "seed": cfg.seed, "nproc": runtime.NumCPU(),
				"gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(), "ops": traced.ops,
			}
			if err := tr.writeSpans(path, header); err != nil {
				return nil, err
			}
		}
	} else {
		res.metrics = endToEndMetrics(median(setups), &plain)
	}
	res.Metrics = map[string]metric{}
	for _, m := range res.metrics {
		res.Metrics[m.name] = m.metric
	}
	fmt.Fprintf(stderr, "perfbench: %s seed=%d traced=%v ops=%d failed=%d\n",
		w.name, cfg.seed, cfg.traced, res.Attempted, res.Failed)
	return res, nil
}

func endToEndMetrics(setupS float64, l *loop) []namedMetric {
	secs := l.busy.Seconds()
	ops := float64(l.ops)
	return []namedMetric{
		{"setup_s", metric{setupS, "s"}},
		{"ops_per_s", metric{ops / secs, "ops/s"}},
		{"op_ms_p50", metric{quantile(l.lat, 0.5), "ms"}},
		{"op_ms_p90", metric{quantile(l.lat, 0.9), "ms"}},
		{"guest_mips", metric{float64(l.insts) / secs / 1e6, "Minst/s"}},
		{"alloc_mb_per_op", metric{float64(l.alloc) / ops / 1e6, "MB"}},
		{"peak_rss_mb", metric{peakRSSMB(), "MB"}},
	}
}

// tracedRun is what the per-layer metrics are derived from.
type tracedRun struct {
	tr            *tracer
	layers        map[string]*layerTotals
	plain, traced *loop
}

// perOp divides v by the number of traced ops.
func (r *tracedRun) perOp(v float64) float64 { return v / float64(r.traced.ops) }

// layer is a span name's totals (zero when the workload never opened it).
func (r *tracedRun) layer(span string) layerTotals {
	if t := r.layers[span]; t != nil {
		return *t
	}
	return layerTotals{}
}

// layerSpec maps one per-layer metric to how it is derived.
type layerSpec struct {
	name, unit string
	value      func(r *tracedRun) float64
}

// busyMS is a span's busy time per traced op.
func busyMS(span string) func(*tracedRun) float64 {
	return func(r *tracedRun) float64 { return r.perOp(r.layer(span).busy.Seconds() * 1e3) }
}

func selfMS(span string) func(*tracedRun) float64 {
	return func(r *tracedRun) float64 { return r.perOp(r.layer(span).self.Seconds() * 1e3) }
}

func calls(span string) func(*tracedRun) float64 {
	return func(r *tracedRun) float64 { return r.perOp(float64(r.layer(span).calls)) }
}

func allocKB(span string) func(*tracedRun) float64 {
	return func(r *tracedRun) float64 { return r.perOp(float64(r.layer(span).alloc) / 1e3) }
}

// counter is a per-op counter averaged over the traced ops.
func counter(name string) func(*tracedRun) float64 {
	return func(r *tracedRun) float64 { return r.perOp(r.tr.counts[name]) }
}

// identity is a simulated count summed over the first pass of the deck;
// it repeats exactly for a given seed.
func identity(name string) func(*tracedRun) float64 {
	return func(r *tracedRun) float64 { return r.tr.counts[name] }
}

// ratio is num/den of two counts (0 when den is 0).
func ratio(num, den string) func(*tracedRun) float64 {
	return func(r *tracedRun) float64 {
		if d := r.tr.counts[den]; d != 0 {
			return r.tr.counts[num] / d
		}
		return 0
	}
}

// nsPerInst is a run span's busy time per guest instruction it retired.
func nsPerInst(span, insts string) func(*tracedRun) float64 {
	return func(r *tracedRun) float64 {
		if n := r.tr.counts[insts]; n != 0 {
			return float64(r.layer(span).busy.Nanoseconds()) / n
		}
		return 0
	}
}

// layerSpecs is every per-layer metric, in the order printed. Layers a
// workload bypasses report 0.
var layerSpecs = []layerSpec{
	{"rewriter.busy_ms", "ms/op", busyMS("rewriter")},
	{"rewriter.calls", "count/op", calls("rewriter")},
	{"rewriter.words_out", "words/op", counter("rewriter.words_out")},
	{"mcu.new.busy_ms", "ms/op", busyMS("mcu.new")},
	{"mcu.new.calls", "count/op", calls("mcu.new")},
	{"mcu.new.alloc_kb", "KB/op", allocKB("mcu.new")},
	{"kernel.boot.busy_ms", "ms/op", busyMS("kernel.boot")},
	{"run.busy_ms", "ms/op", busyMS("run")},
	{"run.ns_per_inst", "ns", nsPerInst("run", "run.insts")},
	{"run.alloc_kb", "KB/op", allocKB("run")},
	{"mcu.insts", "count", identity("mcu.insts")},
	{"mcu.cycles", "count", identity("mcu.cycles")},
	{"mcu.fused_frac", "ratio", ratio("mcu.fused_insts", "mcu.insts")},
	{"mcu.blocks_built", "count", identity("mcu.blocks_built")},
	{"kernel.traps", "count", identity("kernel.traps")},
	{"kernel.switches", "count", identity("kernel.switches")},
	{"kernel.relocations", "count", identity("kernel.relocations")},
	{"kernel.relocated_bytes", "bytes", identity("kernel.relocated_bytes")},
	{"kernel.kernel_cycle_frac", "ratio", ratio("kernel.cycles", "mcu.cycles")},
	{"timetravel.factory.busy_ms", "ms/op", busyMS("timetravel.factory")},
	{"timetravel.seek.self_ms", "ms/op", selfMS("timetravel.seek")},
	{"timetravel.replay_cycles", "count", identity("timetravel.replay_cycles")},
	{"timetravel.ring_hit_frac", "ratio", func(r *tracedRun) float64 {
		return r.tr.counts["timetravel.ring_hits"] / float64(r.tr.pass)
	}},
	{"snapshot.capture.busy_ms", "ms/op", busyMS("snapshot.capture")},
	{"snapshot.encode.busy_ms", "ms/op", busyMS("snapshot.encode")},
	{"snapshot.encode.alloc_kb", "KB/op", allocKB("snapshot.encode")},
	{"snapshot.bytes", "bytes", identity("snapshot.bytes")},
	{"trace.events", "count", identity("trace.events")},
	{"trace.chrome.busy_ms", "ms/op", busyMS("trace.chrome")},
	{"trace.chrome.alloc_kb", "KB/op", allocKB("trace.chrome")},
	{"trace.encode.busy_ms", "ms/op", busyMS("trace.encode")},
	{"trace.encode.alloc_kb", "KB/op", allocKB("trace.encode")},
	{"trace.chrome.bytes", "bytes", identity("trace.chrome.bytes")},
	{"observed.run.ns_per_inst", "ns", nsPerInst("observed.run", "observed.insts")},
	{"observed.run.alloc_kb", "KB/op", allocKB("observed.run")},
	{"telemetry.ndjson.busy_ms", "ms/op", busyMS("telemetry.ndjson")},
	{"telemetry.samples", "count", identity("telemetry.samples")},
	{"profile.pprof.busy_ms", "ms/op", busyMS("profile.pprof")},
	{"go.gc_cycles_per_op", "count/op", func(r *tracedRun) float64 {
		return float64(r.plain.gcCycles) / float64(r.plain.ops)
	}},
	{"trace_overhead_ms", "ms", func(r *tracedRun) float64 {
		return quantile(r.traced.lat, 0.5) - quantile(r.plain.lat, 0.5)
	}},
	{"error_rate", "ratio", func(r *tracedRun) float64 {
		return float64(r.plain.failed+r.traced.failed) / float64(r.plain.ops+r.traced.ops)
	}},
}

func layerMetrics(tr *tracer, plain, traced *loop) []namedMetric {
	r := &tracedRun{tr: tr, layers: tr.totals(), plain: plain, traced: traced}
	out := make([]namedMetric, 0, len(layerSpecs))
	for _, s := range layerSpecs {
		out = append(out, namedMetric{s.name, metric{s.value(r), s.unit}})
	}
	return out
}

// quantile is the q-quantile of xs by linear interpolation between order
// statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// peakRSSMB reads the process's peak resident set (VmHWM) from procfs; 0
// where procfs is unavailable.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	var kb float64
	for _, line := range strings.Split(string(b), "\n") {
		if _, err := fmt.Sscanf(line, "VmHWM: %f kB", &kb); err == nil {
			return kb / 1e3
		}
	}
	return 0
}
