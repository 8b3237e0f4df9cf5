package trace_test

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/faultinject"
	"repro/internal/image"
	"repro/internal/kernel"
	"repro/internal/mcu"
	"repro/internal/profile"
	"repro/internal/trace"
)

// requireReferenceBytes exports sys's recorded stream through the streaming
// exporters and through the encoding/json and fmt references, and requires
// byte equality of both renderings.
func requireReferenceBytes(t *testing.T, sys *core.System) {
	t.Helper()
	rec := sys.Trace()
	var got, want bytes.Buffer
	if err := sys.WriteTrace(&got); err != nil {
		t.Fatal(err)
	}
	opt := trace.ChromeOptions{ClockHz: mcu.ClockHz, ServiceName: kernel.ServiceName}
	if err := trace.ReferenceWriteChrome(&want, rec.Events(), opt); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("WriteChrome differs from the encoding/json reference: %s", trace.FirstDiff(got.Bytes(), want.Bytes()))
	}
	if enc, ref := rec.Encode(), trace.ReferenceEncode(rec.Events()); !bytes.Equal(enc, ref) {
		t.Errorf("Encode differs from the fmt reference: %s", trace.FirstDiff(enc, ref))
	}
}

// TestExportersMatchReferenceOnKernelBenchmarks runs each of the seven
// kernel benchmarks (and the campaign's radiosink receiver) traced at the
// campaign sizes the benchmark's observed-export workload uses, with the
// energy meter attached so power events are in the stream, and compares
// both exports with the references.
func TestExportersMatchReferenceOnKernelBenchmarks(t *testing.T) {
	for _, kb := range faultinject.Benchmarks() {
		t.Run(kb.Name, func(t *testing.T) {
			sys := core.NewSystem(core.WithTrace(trace.New()), core.WithEnergy(new(energy.Meter)))
			if _, err := sys.Deploy(kb.Program); err != nil {
				t.Fatal(err)
			}
			if err := sys.Boot(); err != nil {
				t.Fatal(err)
			}
			if err := sys.Run(4_000_000_000); err != nil {
				t.Fatal(err)
			}
			if sys.Trace().Len() == 0 {
				t.Fatal("empty trace")
			}
			requireReferenceBytes(t, sys)
		})
	}
}

// Tasks of the mixed workload below. Each one drives a group of event
// kinds: the sleeper sleeps and wakes, idling the CPU once it outlives
// the others, and touches a watched variable; the grower recurses past its initial
// stack; the spinner runs long enough to be preempted and writes the UART;
// the faulter stores outside its region.
const (
	sleeperSrc = `
.data
count: .space 1
.text
main:
    ldi r20, 40
again:
    sleep
    lds r16, count
    inc r16
    sts count, r16
    dec r20
    brne again
    break
`
	growerSrc = `
.text
main:
    ldi r24, 40
    rcall deep
    break
deep:
    push r24
    push r25
    dec r24
    breq done
    rcall deep
done:
    pop r25
    pop r24
    ret
`
	spinnerSrc = `
.text
main:
    ldi r20, 6
outer:
    ldi r21, 100
mid:
    ldi r16, 250
spin:
    dec r16
    brne spin
    dec r21
    brne mid
    ldi r24, 0x41
wait:
    in r17, UCSR0A
    sbrs r17, 5
    rjmp wait
    out UDR0, r24
    dec r20
    brne outer
    break
`
	faulterSrc = `
.text
main:
    ldi r16, 200
loop:
    dec r16
    brne loop
    ldi r26, 0x00
    ldi r27, 0x40
    st X, r16
    break
`
)

// TestExportersMatchReferenceOnMixedWorkload runs four tasks that between
// them emit every event kind the exporter renders, first into an execution
// budget and then to completion, and compares both exports with the
// references.
func TestExportersMatchReferenceOnMixedWorkload(t *testing.T) {
	prof := profile.New(profile.Options{})
	sys := core.NewSystem(core.WithTrace(trace.New()), core.WithEnergy(new(energy.Meter)), core.WithProfile(prof))
	var progsIn []*image.Program
	for _, src := range []struct{ name, text string }{
		{"sleeper", sleeperSrc}, {"grower", growerSrc}, {"spinner", spinnerSrc}, {"faulter", faulterSrc},
	} {
		p, err := sys.CompileString(src.name, src.text)
		if err != nil {
			t.Fatalf("%s: %v", src.name, err)
		}
		progsIn = append(progsIn, p)
	}
	count, ok := progsIn[0].Lookup("count")
	if !ok {
		t.Fatal("sleeper has no count symbol")
	}
	prof.AddWatch(profile.Watchpoint{Addr: uint16(count.Addr), Len: 1, Read: true, Write: true})
	for _, p := range progsIn {
		if _, err := sys.Deploy(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Boot(); err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(300_000); err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(100_000_000); err != nil {
		t.Fatal(err)
	}
	seen := map[trace.Kind]int{}
	for _, e := range sys.Trace().Events() {
		seen[e.Kind]++
	}
	for _, k := range []trace.Kind{
		trace.KindSwitch, trace.KindPreempt, trace.KindReloc, trace.KindRelease,
		trace.KindSleep, trace.KindWake, trace.KindIdle, trace.KindMemFault,
		trace.KindWatch, trace.KindPower, trace.KindHalt, trace.KindBudget,
		trace.KindTrapEnter, trace.KindTrapExit, trace.KindTaskExit,
	} {
		if seen[k] == 0 {
			t.Errorf("workload emitted no %v event", k)
		}
	}
	requireReferenceBytes(t, sys)
}
