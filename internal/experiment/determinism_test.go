package experiment

import (
	"bytes"
	"testing"

	"repro/internal/image"
	"repro/internal/kernel"
	"repro/internal/mcu"
	"repro/internal/progs"
	"repro/internal/trace"
)

// tracedWorkload returns a fresh two-task benchmark mix (context switches
// and preemptions included) for the determinism checks.
func tracedWorkload(t *testing.T) []*image.Program {
	t.Helper()
	benches := progs.KernelBenchmarks()
	var programs []*image.Program
	for _, b := range benches {
		if b.Name == "lfsr" || b.Name == "timer" {
			programs = append(programs, b.Program.Clone())
		}
	}
	if len(programs) != 2 {
		t.Fatalf("expected lfsr+timer benchmarks, got %d programs", len(programs))
	}
	return programs
}

// TestTraceStreamsAreByteIdentical runs the same traced workload twice and
// requires the two event streams — and the Chrome exports rendered from
// them — to be byte-identical. The simulation owns every cycle, so any
// difference is nondeterminism leaking into the recorder.
func TestTraceStreamsAreByteIdentical(t *testing.T) {
	rec1, _, err := TraceRun(4_000_000_000, tracedWorkload(t)...)
	if err != nil {
		t.Fatal(err)
	}
	rec2, _, err := TraceRun(4_000_000_000, tracedWorkload(t)...)
	if err != nil {
		t.Fatal(err)
	}
	enc1, enc2 := rec1.Encode(), rec2.Encode()
	if len(enc1) == 0 {
		t.Fatal("empty trace stream")
	}
	if !bytes.Equal(enc1, enc2) {
		t.Fatalf("trace streams differ between identical runs (%d vs %d bytes)", len(enc1), len(enc2))
	}

	var json1, json2 bytes.Buffer
	opts := trace.ChromeOptions{ClockHz: mcu.ClockHz, ServiceName: kernel.ServiceName}
	if err := rec1.WriteChrome(&json1, opts); err != nil {
		t.Fatal(err)
	}
	if err := rec2.WriteChrome(&json2, opts); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(json1.Bytes(), json2.Bytes()) {
		t.Fatal("Chrome exports differ between identical runs")
	}
}

// TestProfileExportsAreByteIdentical runs the same profiled workload twice
// and requires the pprof and folded exports to match byte for byte. The
// pprof writer interns strings and ids in flatten order and emits a
// zero-timestamp gzip header, so any divergence is real nondeterminism in
// the attribution path.
func TestProfileExportsAreByteIdentical(t *testing.T) {
	export := func() ([]byte, []byte) {
		t.Helper()
		prof, err := ProfileRun(4_000_000_000, tracedWorkload(t)...)
		if err != nil {
			t.Fatal(err)
		}
		var pb, folded bytes.Buffer
		if err := prof.WritePprof(&pb); err != nil {
			t.Fatal(err)
		}
		if err := prof.WriteFolded(&folded); err != nil {
			t.Fatal(err)
		}
		return pb.Bytes(), folded.Bytes()
	}
	pb1, folded1 := export()
	pb2, folded2 := export()
	if len(pb1) == 0 || len(folded1) == 0 {
		t.Fatal("empty profile export")
	}
	if !bytes.Equal(pb1, pb2) {
		t.Fatalf("pprof exports differ between identical runs (%d vs %d bytes)", len(pb1), len(pb2))
	}
	if !bytes.Equal(folded1, folded2) {
		t.Fatalf("folded exports differ between identical runs:\n--- a ---\n%s--- b ---\n%s", folded1, folded2)
	}
}

// TestHotspotsParallelMatchesSerial reruns the hotspots experiment with the
// worker pool on and off: profiled runs must keep the engine's guarantee
// that results merge in sweep order with byte-identical rendered output.
func TestHotspotsParallelMatchesSerial(t *testing.T) {
	serial, err := Runner{Concurrency: 1}.Hotspots(5)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Runner{Concurrency: 4}.Hotspots(5)
	if err != nil {
		t.Fatal(err)
	}
	if s, p := serial.Render(), parallel.Render(); s != p {
		t.Errorf("serial and parallel hotspot tables differ:\n--- serial ---\n%s--- parallel ---\n%s", s, p)
	}
}

// TestKernelOverheadParallelMatchesSerial reruns the kernel-overhead
// experiment with the worker pool on and off: tracing must not break the
// harness guarantee that results merge in sweep order with byte-identical
// rendered output.
func TestKernelOverheadParallelMatchesSerial(t *testing.T) {
	serial, err := Runner{Concurrency: 1}.KernelOverhead()
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Runner{Concurrency: 4}.KernelOverhead()
	if err != nil {
		t.Fatal(err)
	}
	if s, p := serial.Render(), parallel.Render(); s != p {
		t.Errorf("serial and parallel overhead tables differ:\n--- serial ---\n%s--- parallel ---\n%s", s, p)
	}
}
