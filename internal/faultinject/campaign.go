package faultinject

import (
	"bytes"
	"fmt"

	"repro/internal/image"
	"repro/internal/kernel"
	"repro/internal/mcu"
	"repro/internal/progs"
	"repro/internal/rewriter"
	"repro/internal/trace"
)

// Containment verdicts, ordered most-severe-first — classify reports the
// first one whose evidence holds.
const (
	VerdictKernelCompromise   = "kernel-compromise"
	VerdictCrossTaskBreach    = "cross-task-breach"
	VerdictContainedFault     = "contained-fault"
	VerdictSilentCorruption   = "silent-corruption"
	VerdictContainedRecovered = "contained-recovered"
)

// Benchmark names one campaign workload: a victim program that must exit on
// its own in an uninjected run.
type Benchmark struct {
	Name    string
	Program *image.Program
}

// Benchmarks returns the campaign suite: the seven kernel benchmarks of the
// paper's evaluation at reduced workload sizes (a campaign runs hundreds of
// full system boots, so each golden run is kept under a few million cycles)
// plus the deliberately vulnerable radiosink receiver.
func Benchmarks() []Benchmark {
	return []Benchmark{
		{"am", progs.AM(6)},
		{"amplitude", progs.Amplitude(40)},
		{"crc", progs.CRC(12)},
		{"eventchain", progs.EventChain(60)},
		{"lfsr", progs.LFSR(3000)},
		{"readadc", progs.ReadADC(40)},
		{"timer", progs.Timer(8)},
		{"radiosink", RadioSink(4)},
	}
}

// Spec configures a campaign: every (Seed, benchmark, trial) triple fully
// determines one injection, so reports are reproducible byte-for-byte.
type Spec struct {
	Seed   uint64
	Trials int
}

// Trial records one injection and its verdict. Non-contained verdicts carry
// a forensic report reconstructing how the payload escaped.
type Trial struct {
	Trial    int       `json:"trial"`
	Kind     string    `json:"kind"`
	Site     string    `json:"site"`
	Verdict  string    `json:"verdict"`
	Detail   string    `json:"detail,omitempty"`
	Forensic *Forensic `json:"forensics,omitempty"`
}

// Report aggregates one benchmark's trials.
type Report struct {
	Benchmark    string         `json:"benchmark"`
	GoldenCycles uint64         `json:"golden_cycles"`
	Verdicts     map[string]int `json:"verdicts"`
	Trials       []Trial        `json:"trials"`
}

// goldenLimit caps the uninjected reference run; a benchmark that cannot
// finish inside it is misconfigured for campaign use.
const goldenLimit = 400_000_000

// trialSlack is added on top of twice the golden runtime to bound each
// trial: enough headroom for containment and relocation detours, small
// enough that livelocks resolve quickly.
const trialSlack = 2_000_000

// rearmDelay is how long a victim-gated injection waits before re-checking
// whether the victim holds the CPU.
const rearmDelay = 512

// outcome captures everything classify needs from one boot-and-run.
type outcome struct {
	k                *kernel.Kernel
	m                *mcu.Machine
	victim, sentinel *kernel.Task
	// victimDone is set by the exit hook on the victim's termination —
	// normal or faulted; ExitReason distinguishes. The machine halts
	// there: a trial is over once its victim is.
	victimDone bool
	exitCycle  uint64
	victimHeap []byte
	uart       []byte
	radio      []byte
	// sentinelHeap is the witness pattern at the end of the run. The
	// pattern ships in .data and is never legitimately written, so it is
	// comparable across runs regardless of when each one stopped.
	sentinelHeap []byte
	runErr       error
	// firedAt is the boundary clock the armed injection actually fired at
	// (0 = never fired) — the anchor forensic replays lockstep from.
	firedAt uint64
}

// snapshotHeap copies a task's live heap bytes [pl, ph).
func snapshotHeap(m *mcu.Machine, t *kernel.Task) []byte {
	pl, ph, _ := t.Region()
	out := make([]byte, 0, ph-pl)
	for a := pl; a < ph; a++ {
		out = append(out, m.Peek(a))
	}
	return out
}

// flattenRadio reduces transmitted frames to their payload bytes: trial
// timing legitimately shifts under injection, so cycles are not compared.
func flattenRadio(frames []mcu.RadioFrame) []byte {
	out := make([]byte, len(frames))
	for i, f := range frames {
		out[i] = f.Byte
	}
	return out
}

// setupOnce boots victim+sentinel and lets arm plant an injection, stopping
// short of the run itself — forensic replays drive the kernel boundary by
// boundary instead of to completion. rec, when non-nil, attaches a trace
// recorder for the replay that reconstructs the event tail.
func setupOnce(victimName string, victimNat, sentinelNat *rewriter.Naturalized,
	arm func(o *outcome), rec *trace.Recorder) (*outcome, error) {
	o := &outcome{m: mcu.New()}
	cfg := kernel.Config{Trace: rec, OnTaskExit: func(k *kernel.Kernel, t *kernel.Task) {
		if t != o.victim || o.victimDone {
			return
		}
		o.victimDone = true
		o.exitCycle = o.m.Cycles()
		o.victimHeap = snapshotHeap(o.m, t)
		o.uart = o.m.UARTOutput()
		o.radio = flattenRadio(o.m.RadioOutput())
		o.m.Halt("faultinject: victim done")
	}}
	o.k = kernel.New(o.m, cfg)
	var err error
	if o.victim, err = o.k.AddTask(victimName, victimNat); err != nil {
		return nil, fmt.Errorf("faultinject: add victim: %w", err)
	}
	if o.sentinel, err = o.k.AddTask("sentinel", sentinelNat); err != nil {
		return nil, fmt.Errorf("faultinject: add sentinel: %w", err)
	}
	if err := o.k.Boot(); err != nil {
		return nil, fmt.Errorf("faultinject: boot: %w", err)
	}
	if arm != nil {
		arm(o)
	}
	return o, nil
}

// runOnce boots victim+sentinel, lets arm plant an injection, and runs to
// the victim's termination or the cycle limit. Setup failures are engine
// errors; a failing kernel run lands in outcome.runErr for classification.
func runOnce(victimName string, victimNat, sentinelNat *rewriter.Naturalized, limit uint64,
	arm func(o *outcome)) (*outcome, error) {
	o, err := setupOnce(victimName, victimNat, sentinelNat, arm, nil)
	if err != nil {
		return nil, err
	}
	o.runErr = o.k.Run(limit)
	if o.sentinel.State() != kernel.TaskTerminated {
		o.sentinelHeap = snapshotHeap(o.m, o.sentinel)
	}
	return o, nil
}

// trialKinds is the rotation a campaign cycles through, so even a short
// campaign covers every fault model.
var trialKinds = []Kind{KindSRAMFlip, KindSRAMBurst, KindRegFlip, KindStackSmash, KindRetAddr, KindRadio}

// plan is one trial's pre-drawn randomness: all draws happen before the run
// so the stream never depends on simulation state.
type plan struct {
	kind     Kind
	at       uint64
	offBits  uint64 // region-relative site selector (sram kinds)
	bit      uint8
	burstLen uint8
	reg      uint8
	smashLen uint8
	value    byte
	target   uint16 // retaddr hijack destination (flash word address)
	payload  []byte
}

// drawPlan derives trial trialIdx's injection from the campaign seed.
func drawPlan(spec Spec, benchIdx, trialIdx int, goldenExit uint64) plan {
	r := newTrialRNG(spec.Seed, benchIdx, trialIdx)
	p := plan{kind: trialKinds[trialIdx%len(trialKinds)]}
	// Fire somewhere inside the victim's golden lifetime, past boot.
	window := goldenExit - kernel.CostSysInit
	if window == 0 {
		window = 1
	}
	p.at = kernel.CostSysInit + r.next()%window
	switch p.kind {
	case KindSRAMFlip:
		p.offBits, p.bit = r.next(), uint8(r.intn(8))
	case KindSRAMBurst:
		p.offBits, p.burstLen, p.bit = r.next(), uint8(2+r.intn(7)), uint8(r.intn(8))
	case KindRegFlip:
		p.reg, p.bit = uint8(r.intn(32)), uint8(r.intn(8))
	case KindStackSmash:
		p.smashLen, p.value = uint8(8+r.intn(33)), r.byteVal()
	case KindRetAddr:
		p.target = uint16(r.next())
	case KindRadio:
		// Always oversized relative to the radiosink's 8-byte buffer: a
		// length prefix of 8..39 followed by that many bytes.
		n := 9 + r.intn(31)
		p.payload = make([]byte, n)
		p.payload[0] = byte(n - 1)
		for i := 1; i < n; i++ {
			p.payload[i] = r.byteVal()
		}
	}
	return p
}

// armPlan schedules the planned injection on a booted system. Region- and
// SP-relative sites resolve at fire time (regions move under relocation; SP
// is a flight-recorder quantity), and victim-gated kinds re-arm until the
// victim actually holds the CPU. It returns a site report: "unfired" until
// the injection lands, then the resolved absolute site.
func armPlan(o *outcome, p plan) *string {
	site := "unfired"
	m, k, victim := o.m, o.k, o.victim
	record := func(in Injection) {
		in.Apply(m)
		in.At = m.Cycles() // stamp the actual fire cycle into the site report
		site = in.String()
		o.firedAt = in.At
	}
	switch p.kind {
	case KindSRAMFlip, KindSRAMBurst:
		m.Arm(mcu.HookInject, p.at, 0, func(uint64) {
			if victim.State() == kernel.TaskTerminated {
				return
			}
			n := uint16(1)
			if p.kind == KindSRAMBurst {
				n = uint16(p.burstLen)
			}
			pl, _, pu := victim.Region()
			if pu-pl < n { // degenerate region: nothing to hit safely
				return
			}
			// Keep the whole flip inside the victim's region: a burst
			// straddling a region boundary would corrupt the neighbour
			// physically, which no kernel could contain and which would
			// poison the breach verdict.
			addr := pl + uint16(p.offBits%uint64(pu-pl-n+1))
			record(Injection{Kind: p.kind, Addr: addr, Bit: p.bit, Len: p.burstLen})
		})
	case KindRegFlip, KindStackSmash, KindRetAddr:
		var fn func(uint64)
		fn = func(uint64) {
			if victim.State() == kernel.TaskTerminated {
				return
			}
			if k.Current() != victim {
				m.Arm(mcu.HookInject, m.Cycles()+rearmDelay, 0, fn)
				return
			}
			switch p.kind {
			case KindRegFlip:
				record(Injection{Kind: KindRegFlip, Reg: p.reg, Bit: p.bit})
			case KindStackSmash:
				// Smash only what fits inside the victim's own region
				// above the live SP (same boundary discipline as bursts).
				_, _, pu := victim.Region()
				sp := m.SP()
				n := p.smashLen
				if room := int(pu) - int(sp) - 1; room < int(n) {
					if room <= 0 {
						m.Arm(mcu.HookInject, m.Cycles()+rearmDelay, 0, fn)
						return
					}
					n = uint8(room)
				}
				record(Injection{Kind: KindStackSmash, Len: n, Value: p.value})
			case KindRetAddr:
				_, _, pu := victim.Region()
				if uint32(m.SP())+2 >= uint32(pu) { // no frame on the stack yet
					m.Arm(mcu.HookInject, m.Cycles()+rearmDelay, 0, fn)
					return
				}
				record(Injection{Kind: KindRetAddr, Addr: p.target})
			}
		}
		m.Arm(mcu.HookInject, p.at, 0, fn)
	case KindRadio:
		m.Arm(mcu.HookInject, p.at, 0, func(uint64) {
			record(Injection{Kind: KindRadio, Payload: p.payload})
		})
	}
	return &site
}

// classify compares a trial against the golden run, most severe verdict
// first.
func classify(golden, trial *outcome) (verdict, detail string) {
	if trial.runErr != nil {
		return VerdictKernelCompromise, "kernel error: " + trial.runErr.Error()
	}
	if trial.sentinel.State() == kernel.TaskTerminated {
		return VerdictCrossTaskBreach, "sentinel terminated: " + trial.sentinel.ExitReason
	}
	if !bytes.Equal(trial.sentinelHeap, golden.sentinelHeap) {
		detail := "sentinel heap diverged"
		if len(trial.sentinelHeap) >= sentinelPatLen+2 &&
			trial.sentinelHeap[sentinelPatLen] == 0xEF && trial.sentinelHeap[sentinelPatLen+1] == 0xBE {
			detail = "sentinel flagged pattern corruption"
		}
		return VerdictCrossTaskBreach, detail
	}
	if trial.victimDone && trial.victim.ExitReason != "exited" {
		detail := trial.victim.ExitReason
		if rec, ok := trial.k.LastFault(trial.victim.ID); ok {
			detail = fmt.Sprintf("%s in %s service: %s", rec.Kind, rec.ServiceName(), rec.Reason)
		}
		return VerdictContainedFault, detail
	}
	if !trial.victimDone {
		return VerdictContainedFault, "livelock: trial cycle budget exhausted"
	}
	switch {
	case !bytes.Equal(trial.victimHeap, golden.victimHeap):
		return VerdictSilentCorruption, "victim heap differs from golden run"
	case !bytes.Equal(trial.uart, golden.uart):
		return VerdictSilentCorruption, fmt.Sprintf("uart differs from golden run (%q vs %q)", trial.uart, golden.uart)
	case !bytes.Equal(trial.radio, golden.radio):
		return VerdictSilentCorruption, "radio output differs from golden run"
	}
	return VerdictContainedRecovered, ""
}

// RunBenchmark runs one benchmark's full trial set: one golden reference
// run, then Spec.Trials injected replays, each classified against the
// golden outputs. benchIdx keys the RNG, so a benchmark's trials do not
// depend on which other benchmarks the campaign includes.
func RunBenchmark(b Benchmark, spec Spec, benchIdx int) (Report, error) {
	victimNat, err := rewriter.Rewrite(b.Program.Clone(), rewriter.Config{})
	if err != nil {
		return Report{}, fmt.Errorf("faultinject: rewrite %s: %w", b.Name, err)
	}
	sentinelNat, err := rewriter.Rewrite(SentinelProgram(), rewriter.Config{})
	if err != nil {
		return Report{}, fmt.Errorf("faultinject: rewrite sentinel: %w", err)
	}
	golden, err := runOnce(b.Name, victimNat.Clone(), sentinelNat.Clone(), goldenLimit, nil)
	if err != nil {
		return Report{}, err
	}
	if golden.runErr != nil {
		return Report{}, fmt.Errorf("faultinject: golden run of %s failed: %w", b.Name, golden.runErr)
	}
	if !golden.victimDone || golden.victim.ExitReason != "exited" {
		return Report{}, fmt.Errorf("faultinject: golden run of %s did not exit cleanly (%q)",
			b.Name, golden.victim.ExitReason)
	}
	rep := Report{
		Benchmark:    b.Name,
		GoldenCycles: golden.exitCycle,
		Verdicts:     make(map[string]int),
	}
	limit := 2*golden.exitCycle + trialSlack
	for i := 0; i < spec.Trials; i++ {
		p := drawPlan(spec, benchIdx, i, golden.exitCycle)
		var site *string
		trial, err := runOnce(b.Name, victimNat.Clone(), sentinelNat.Clone(), limit,
			func(o *outcome) { site = armPlan(o, p) })
		if err != nil {
			return Report{}, err
		}
		verdict, detail := classify(golden, trial)
		rep.Verdicts[verdict]++
		var forensic *Forensic
		if NeedsForensic(verdict) && trial.firedAt > 0 {
			if forensic, err = forensicReplay(b.Name, victimNat, sentinelNat, limit, p, trial.firedAt); err != nil {
				return Report{}, err
			}
		}
		rep.Trials = append(rep.Trials, Trial{
			Trial: i, Kind: p.kind.String(), Site: *site,
			Verdict: verdict, Detail: detail, Forensic: forensic,
		})
	}
	return rep, nil
}
