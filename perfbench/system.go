package main

import (
	"bytes"
	"errors"
	"fmt"
	"hash/maphash"

	"repro/internal/core"
	"repro/internal/image"
	"repro/internal/kernel"
	"repro/internal/mcu"
	"repro/internal/progs"
)

// kernelBench is one of the paper's seven kernel benchmarks with its two
// reference workload sizes: the fault-campaign size (faultinject.Benchmarks)
// and the paper's evaluation size (progs.KernelBenchmarks). The program
// tests pin both sizes against those two lists.
type kernelBench struct {
	name            string
	build           func(int) *image.Program
	campaign, paper int
}

var kernelBenches = []kernelBench{
	{"am", progs.AM, 6, 40},
	{"amplitude", progs.Amplitude, 40, 400},
	{"crc", progs.CRC, 12, 120},
	{"eventchain", progs.EventChain, 60, 600},
	{"lfsr", progs.LFSR, 3000, 30000},
	{"readadc", progs.ReadADC, 40, 400},
	{"timer", progs.Timer, 8, 40},
}

// runLimit bounds every run to completion; a job that does not finish
// inside it is reported as a mismatch (Done false), not silently cut.
const runLimit = 4_000_000_000

// hashSeed keys the in-process stream hashes; goldens are computed and
// checked in the same process, so a per-process seed suffices.
var hashSeed = maphash.MakeSeed()

func hashBytes(b []byte) uint64 { return maphash.Bytes(hashSeed, b) }

// job is one op's input: the programs to deploy. With admitAll the
// programs are admitted in order until SRAM is full (the Fig. 7 shape);
// otherwise every program must be admitted.
type job struct {
	label    string
	progs    []*image.Program
	admitAll bool
}

// outcome is everything a run simulated that the gate compares: the
// simulated clock, retired instructions, the kernel counters, each task's
// exit reason and final heap, and the node's UART and radio output. For
// observed runs it also carries one hash per exported stream.
type outcome struct {
	Done     bool
	Cycles   uint64
	Insts    uint64
	Stats    kernel.Stats
	Admitted int
	Exits    []string
	Heap     [][]byte
	UART     []byte
	Radio    []mcu.RadioFrame
	Streams  []uint64
}

// diff names the first field where o differs from want, or "" when the
// two are identical.
func (o *outcome) diff(want *outcome) string {
	switch {
	case o.Done != want.Done:
		return fmt.Sprintf("done %v, golden %v", o.Done, want.Done)
	case o.Cycles != want.Cycles:
		return fmt.Sprintf("cycles %d, golden %d", o.Cycles, want.Cycles)
	case o.Insts != want.Insts:
		return fmt.Sprintf("instructions %d, golden %d", o.Insts, want.Insts)
	case o.Stats != want.Stats:
		return fmt.Sprintf("kernel stats %+v, golden %+v", o.Stats, want.Stats)
	case o.Admitted != want.Admitted:
		return fmt.Sprintf("admitted %d tasks, golden %d", o.Admitted, want.Admitted)
	case len(o.Exits) != len(want.Exits) || len(o.Heap) != len(want.Heap):
		return fmt.Sprintf("%d task exits, golden %d", len(o.Exits), len(want.Exits))
	case !bytes.Equal(o.UART, want.UART):
		return "UART output differs"
	case len(o.Radio) != len(want.Radio):
		return fmt.Sprintf("%d radio frames, golden %d", len(o.Radio), len(want.Radio))
	case len(o.Streams) != len(want.Streams):
		return fmt.Sprintf("%d exported streams, golden %d", len(o.Streams), len(want.Streams))
	}
	for i := range o.Exits {
		if o.Exits[i] != want.Exits[i] {
			return fmt.Sprintf("task exit %d: %q, golden %q", i, o.Exits[i], want.Exits[i])
		}
		if !bytes.Equal(o.Heap[i], want.Heap[i]) {
			return fmt.Sprintf("task exit %d: final heap differs", i)
		}
	}
	for i := range o.Radio {
		if o.Radio[i] != want.Radio[i] {
			return fmt.Sprintf("radio frame %d differs", i)
		}
	}
	for i := range o.Streams {
		if o.Streams[i] != want.Streams[i] {
			return fmt.Sprintf("exported stream %s differs", streamNames[i])
		}
	}
	return ""
}

// exitLog captures each task's exit reason and final heap bytes as the
// kernel terminates it, before its region is released.
type exitLog struct {
	exits []string
	heap  [][]byte
}

func (l *exitLog) onExit(k *kernel.Kernel, t *kernel.Task) {
	pl, ph, _ := t.Region()
	h := make([]byte, 0, ph-pl)
	for a := pl; a < ph; a++ {
		h = append(h, k.M.Peek(a))
	}
	l.exits = append(l.exits, t.ExitReason)
	l.heap = append(l.heap, h)
}

// booted is a system built, deployed and booted for one job.
type booted struct {
	sys      *core.System
	log      *exitLog
	admitted int
}

// boot builds a fresh system for j: construction (mcu.New inside
// core.NewSystem), rewriting each program, then Deploy and Boot. observers
// are appended after the kernel configuration so they compose with it.
func boot(j *job, tr *tracer, observers ...core.Option) (*booted, error) {
	b := &booted{log: &exitLog{}}
	opts := append([]core.Option{core.WithKernelConfig(kernel.Config{InitialStack: 64, OnTaskExit: b.log.onExit})}, observers...)
	s := tr.beginAlloc("mcu.new")
	b.sys = core.NewSystem(opts...)
	tr.end(s)
	for _, p := range j.progs {
		s = tr.begin("rewriter")
		nat, err := b.sys.Naturalize(p)
		tr.end(s)
		if err != nil {
			return nil, fmt.Errorf("%s: rewrite %s: %w", j.label, p.Name, err)
		}
		tr.add("rewriter.words_out", float64(len(nat.Program.Words)))
		s = tr.begin("kernel.boot")
		_, err = b.sys.Deploy(p)
		tr.end(s)
		if j.admitAll && errors.Is(err, kernel.ErrNoMemory) && b.admitted > 0 {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("%s: deploy %s: %w", j.label, p.Name, err)
		}
		b.admitted++
	}
	s = tr.begin("kernel.boot")
	err := b.sys.Boot()
	tr.end(s)
	if err != nil {
		return nil, fmt.Errorf("%s: boot: %w", j.label, err)
	}
	return b, nil
}

// outcome reads the simulated result of a finished run.
func (b *booted) outcome() *outcome {
	m := b.sys.Machine()
	return &outcome{
		Done:     b.sys.Done(),
		Cycles:   m.Cycles(),
		Insts:    m.Instructions(),
		Stats:    b.sys.Kernel().Stats,
		Admitted: b.admitted,
		Exits:    b.log.exits,
		Heap:     b.log.heap,
		UART:     m.UARTOutput(),
		Radio:    m.RadioOutput(),
	}
}

// simCounts are the simulated counters the traced run reports as identity
// metrics: they must repeat exactly on every run of the same seed.
type simCounts struct {
	cycles, insts, traps, kernelCycles, relocatedBytes uint64
	switches, relocations                              int
}

func countsOf(m *mcu.Machine, st *kernel.Stats) simCounts {
	c := simCounts{
		cycles:         m.Cycles(),
		insts:          m.Instructions(),
		kernelCycles:   st.BootCycles + st.SwitchCycles + st.RelocCycles,
		relocatedBytes: st.RelocatedBytes,
		switches:       st.ContextSwitches,
		relocations:    st.Relocations,
	}
	for class, n := range st.ServiceCalls {
		c.traps += n
		c.kernelCycles += st.ServiceOverhead[class]
	}
	return c
}

// since returns the counts accrued between base and c.
func (c simCounts) since(base simCounts) simCounts {
	return simCounts{
		cycles:         c.cycles - base.cycles,
		insts:          c.insts - base.insts,
		traps:          c.traps - base.traps,
		kernelCycles:   c.kernelCycles - base.kernelCycles,
		relocatedBytes: c.relocatedBytes - base.relocatedBytes,
		switches:       c.switches - base.switches,
		relocations:    c.relocations - base.relocations,
	}
}

// addIdentityCounts records c into the traced run's identity metrics.
func addIdentityCounts(tr *tracer, c simCounts) {
	tr.addIdentity("mcu.cycles", float64(c.cycles))
	tr.addIdentity("mcu.insts", float64(c.insts))
	tr.addIdentity("kernel.traps", float64(c.traps))
	tr.addIdentity("kernel.cycles", float64(c.kernelCycles))
	tr.addIdentity("kernel.relocated_bytes", float64(c.relocatedBytes))
	tr.addIdentity("kernel.switches", float64(c.switches))
	tr.addIdentity("kernel.relocations", float64(c.relocations))
}
