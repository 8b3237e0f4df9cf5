package trace_test

import (
	"io"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/kernel"
	"repro/internal/mcu"
	"repro/internal/progs"
	"repro/internal/trace"
)

// benchStream is the recorder of one traced run of the amplitude kernel
// benchmark with the energy meter attached: ~114k events in the kind mix
// every kernel benchmark has (trap enter/exit pairs, slice checks,
// preemptions, power transitions, and the lifecycle events).
var benchStream = sync.OnceValues(func() (*trace.Recorder, error) {
	for _, kb := range progs.KernelBenchmarks() {
		if kb.Name != "amplitude" {
			continue
		}
		rec := trace.New()
		sys := core.NewSystem(core.WithTrace(rec), core.WithEnergy(new(energy.Meter)))
		if _, err := sys.Deploy(kb.Program); err != nil {
			return nil, err
		}
		if err := sys.Boot(); err != nil {
			return nil, err
		}
		return rec, sys.Run(4_000_000_000)
	}
	panic("amplitude benchmark missing")
})

func recordedStream(b *testing.B) *trace.Recorder {
	rec, err := benchStream()
	if err != nil {
		b.Fatal(err)
	}
	return rec
}

// BenchmarkWriteChrome measures the Chrome trace_event export layer alone.
func BenchmarkWriteChrome(b *testing.B) {
	rec := recordedStream(b)
	opt := trace.ChromeOptions{ClockHz: mcu.ClockHz, ServiceName: kernel.ServiceName}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rec.WriteChrome(io.Discard, opt); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rec.Len()), "events")
}

var encodeSink []byte

// BenchmarkRecorderEncode measures the canonical text dump alone.
func BenchmarkRecorderEncode(b *testing.B) {
	rec := recordedStream(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		encodeSink = rec.Encode()
	}
	b.ReportMetric(float64(rec.Len()), "events")
}
