package trace

import (
	"bytes"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestCaptureRestoreState(t *testing.T) {
	r := NewLimited(3)
	r.Emit(Event{Cycle: 1, Kind: KindBoot, Task: -1, Arg: 5738})
	r.Emit(Event{Cycle: 2, Kind: KindPower, Task: -1, Arg: PowerRadio, Arg2: 1})
	r.Emit(Event{Cycle: 3, Kind: KindIdle, Task: -1, Arg: 100})
	r.Emit(Event{Cycle: 4, Kind: KindHalt, Task: -1, Detail: "over limit"})

	st := r.CaptureState()
	if st.Limit != 3 || st.Len() != 3 || st.Dropped != 1 {
		t.Fatalf("captured state = limit %d, %d events, %d dropped", st.Limit, st.Len(), st.Dropped)
	}
	want := st.Encode()

	r2 := New()
	r2.RestoreState(st)
	if !bytes.Equal(r.Encode(), r2.Encode()) {
		t.Fatal("restored recorder encodes differently")
	}
	if r2.Limit != 3 || r2.Dropped() != 1 {
		t.Fatalf("restored recorder = limit %d, dropped %d", r2.Limit, r2.Dropped())
	}

	// No aliasing in either direction: a restored recorder that keeps
	// emitting, and a source that keeps emitting after a Reset, leave the
	// captured state's bytes alone.
	r2.Limit = 0
	r2.Emit(Event{Cycle: 5, Kind: KindHalt, Detail: "scribbled"})
	r.Emit(Event{Cycle: 5, Kind: KindBudget})
	if st2 := r.CaptureState(); st2.Len() != 3 || st2.Dropped != 2 {
		t.Fatalf("limited recorder retained %d events, dropped %d", st2.Len(), st2.Dropped)
	}
	r.Reset()
	r.Emit(Event{Cycle: 6, Kind: KindHalt, Detail: "after reset"})
	if got := st.Encode(); !bytes.Equal(got, want) {
		t.Fatalf("captured state changed after its recorders kept emitting:\n%s\nwant:\n%s", got, want)
	}
}

// TestRecordIsPointerFree pins the storage record at 40 bytes of integer
// fields, none of which the garbage collector has to scan.
func TestRecordIsPointerFree(t *testing.T) {
	typ := reflect.TypeOf(record{})
	for i := 0; i < typ.NumField(); i++ {
		switch f := typ.Field(i); f.Type.Kind() {
		case reflect.Int32, reflect.Uint8, reflect.Uint32, reflect.Uint64:
		default:
			t.Errorf("record field %s is a %s", f.Name, f.Type.Kind())
		}
	}
	if typ.Size() != 40 {
		t.Errorf("record is %d bytes, want 40", typ.Size())
	}
}

// emitN feeds r n events of a kernel-like mix starting at cycle from, with
// details that repeat (task names) and details that are new (per-event
// notes) so the detail table grows across chunks.
func emitN(r *Recorder, from uint64, n int, tag string) {
	for i := 0; i < n; i++ {
		c := from + uint64(i)*7
		switch i % 5 {
		case 0:
			r.Emit(Event{Cycle: c, Kind: KindTaskSpawn, Task: int32(i % 3), Arg: c, Detail: tag + "task" + string(rune('a'+i%3))})
		case 1:
			r.Emit(Event{Cycle: c, Kind: KindTrapEnter, Task: int32(i % 3), Arg: 3, PC: uint32(i)})
		case 2:
			r.Emit(Event{Cycle: c, Kind: KindTrapExit, Task: int32(i % 3), Arg: 3, Arg2: 31})
		case 3:
			r.Emit(Event{Cycle: c, Kind: KindHalt, Task: -1, Detail: tag + "note " + strconv.Itoa(i/50) + "\xff"})
		default:
			r.Emit(Event{Cycle: c, Kind: KindIdle, Task: -1, Arg: 7})
		}
	}
}

// TestStateSharesChunksWithoutAliasing captures streams that end just
// before, on and just after a chunk boundary, plus a limited recorder that
// has dropped events. After the capture the source keeps emitting, and the
// state is restored into two recorders that each emit different events.
// Every recorder and the state must encode exactly as a fresh recorder fed
// the same events does.
func TestStateSharesChunksWithoutAliasing(t *testing.T) {
	fresh := func(limit int, parts ...func(*Recorder)) []byte {
		r := NewLimited(limit)
		for _, p := range parts {
			p(r)
		}
		return r.Encode()
	}
	emit := func(from uint64, n int, tag string) func(*Recorder) {
		return func(r *Recorder) { emitN(r, from, n, tag) }
	}
	for _, tc := range []struct {
		name     string
		limit, n int
	}{
		{"4095", 0, chunkSize - 1},
		{"4096", 0, chunkSize},
		{"4097", 0, chunkSize + 1},
		{"limited", chunkSize + 10, 2*chunkSize + 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := emit(0, tc.n, "")
			src := NewLimited(tc.limit)
			base(src)
			st := src.CaptureState()
			if tc.limit > 0 && st.Dropped == 0 {
				t.Fatal("limited recorder dropped nothing")
			}
			more := emit(1<<20, 3000, "src ")
			more(src)

			// Lift the limit on the restored recorders so they append
			// into the last chunk they copied.
			unlimit := func(r *Recorder) { r.Limit = 0 }
			a, b := New(), New()
			a.RestoreState(st)
			b.RestoreState(st)
			extraA, extraB := emit(1<<21, 5000, "a "), emit(1<<22, 17, "b ")
			unlimit(a)
			extraA(a)
			unlimit(b)
			extraB(b)

			for _, c := range []struct {
				name string
				got  []byte
				want []byte
			}{
				{"state", st.Encode(), fresh(tc.limit, base)},
				{"source", src.Encode(), fresh(tc.limit, base, more)},
				{"restored a", a.Encode(), fresh(tc.limit, base, unlimit, extraA)},
				{"restored b", b.Encode(), fresh(tc.limit, base, unlimit, extraB)},
			} {
				if !bytes.Equal(c.got, c.want) {
					t.Errorf("%s encodes differently from a fresh recorder: %s", c.name, FirstDiff(c.got, c.want))
				}
			}
			if a.Dropped() != st.Dropped || a.Len() != st.Len()+5000 {
				t.Errorf("restored a holds %d events and %d drops, want %d and %d", a.Len(), a.Dropped(), st.Len()+5000, st.Dropped)
			}
			again := New()
			again.RestoreState(st)
			if !bytes.Equal(again.CaptureState().Encode(), st.Encode()) {
				t.Error("re-captured state encodes differently")
			}
		})
	}
}

// TestFormatAllKinds drives Format over one event of every kind, with and
// without a name resolver, pinning that no kind falls through to the raw
// fallback line.
func TestFormatAllKinds(t *testing.T) {
	name := func(id int32) string { return "taskname" }
	events := []Event{
		{Kind: KindBoot, Task: -1, Arg: 5738},
		{Kind: KindProgLoad, Task: -1, Arg: 0x100, Arg2: 64, Detail: "blink"},
		{Kind: KindTaskSpawn, Task: 0, Arg: 0x200, Arg2: 512, Detail: "blink#0"},
		{Kind: KindTaskExit, Task: 0, Arg: 96, Detail: "done"},
		{Kind: KindSwitch, Task: 1, Arg: 1, Arg2: 2298},
		{Kind: KindSwitch, Task: 1, Arg: 0, Arg2: 2298}, // from idle
		{Kind: KindPreempt, Task: 1},
		{Kind: KindSliceCheck, Task: 1},
		{Kind: KindTrapEnter, Task: 0, Arg: 3},
		{Kind: KindTrapExit, Task: 0, Arg: 3, Arg2: 80},
		{Kind: KindReloc, Task: 0, Arg: 64, Arg2: 2326, Detail: "grow"},
		{Kind: KindRelease, Task: 0, Arg: 512, Arg2: 100},
		{Kind: KindMemFault, Task: 0, Arg: 0x10FE, PC: 0x44, Detail: "main"},
		{Kind: KindSleep, Task: 0, Arg: 9000},
		{Kind: KindWake, Task: 0},
		{Kind: KindIdle, Task: -1, Arg: 4096},
		{Kind: KindInterrupt, Task: -1, Arg: 2},
		{Kind: KindHalt, Task: -1, Detail: "workload complete"},
		{Kind: KindBudget, Task: -1, Arg: 1 << 30},
		{Kind: KindWatch, Task: 0, Arg: 0x310, Arg2: 1, PC: 0x20, Detail: "main"},
		{Kind: KindWatch, Task: 0, Arg: 0x310, Arg2: 0, PC: 0x20},
		{Kind: KindPower, Task: -1, Arg: PowerRadio, Arg2: 1},
		{Kind: KindPower, Task: -1, Arg: PowerUART, Arg2: 0},
		{Kind: KindPower, Task: -1, Arg: PowerADC, Arg2: 1},
		{Kind: KindPower, Task: -1, Arg: PowerTimer, Arg2: 0},
	}
	for _, e := range events {
		for _, resolver := range []func(int32) string{name, nil} {
			line := e.Format(resolver)
			if line == "" {
				t.Errorf("%s: empty format", e.Kind)
			}
			if strings.Contains(line, "arg2=") {
				t.Errorf("%s fell through to the raw fallback: %s", e.Kind, line)
			}
		}
	}
	// The fallback line still renders for an unknown kind.
	raw := Event{Kind: Kind(200), Task: 3, Arg: 1, Arg2: 2}.Format(nil)
	if !strings.Contains(raw, "kind(200)") {
		t.Errorf("unknown kind fallback = %q", raw)
	}
}

func TestPowerFormatNames(t *testing.T) {
	cases := []struct {
		arg  uint64
		want string
	}{
		{PowerRadio, "radio"},
		{PowerUART, "uart"},
		{PowerADC, "adc"},
		{PowerTimer, "timer"},
		{99, "device(99)"},
	}
	for _, tc := range cases {
		line := Event{Kind: KindPower, Arg: tc.arg, Arg2: 1}.Format(nil)
		if !strings.Contains(line, tc.want) {
			t.Errorf("power arg %d formats to %q, want it to contain %q", tc.arg, line, tc.want)
		}
	}
	if KindPower.String() != "power" {
		t.Errorf("KindPower.String() = %q", KindPower.String())
	}
}

// TestMetricsRenderEnergy: the energy section renders only when the
// breakdown is present, so unmetered runs keep byte-identical output.
func TestMetricsRenderEnergy(t *testing.T) {
	m := &Metrics{
		TotalCycles: 1000, IdleCycles: 100, KernelCycles: 200, AppCycles: 700,
		Services: []ServiceMetrics{{Class: 1, Name: "direct-io", Calls: 4, Cycles: 8, Overhead: 8, EnergyPJ: 26040}},
		Tasks:    []TaskMetrics{{ID: 0, Name: "blink#0", State: "ready", RunCycles: 900, EnergyPJ: 2929500}},
	}
	plain := m.Render()
	if strings.Contains(plain, "energy") {
		t.Fatalf("unmetered render mentions energy:\n%s", plain)
	}
	m.Energy = &EnergyMetrics{
		TotalPJ: 3000000, CPUActivePJ: 2929500, CPUSleepPJ: 600,
		RadioPJ: 42186240, RadioBytes: 1, UARTBytes: 2, ADCConversions: 3,
	}
	metered := m.Render()
	for _, want := range []string{"energy: 3000000 pJ total", "radio 42186240", "energy=2929500 pJ", "26040 pJ", "1 radio bytes, 2 uart bytes, 3 adc conversions"} {
		if !strings.Contains(metered, want) {
			t.Errorf("metered render missing %q:\n%s", want, metered)
		}
	}
}

// TestConcurrentRestoresShareChunks restores one multi-chunk state into
// recorders on separate goroutines while the source keeps emitting; each
// must encode as a fresh recorder fed the same events. Under -race it pins
// the shared chunks as read-only.
func TestConcurrentRestoresShareChunks(t *testing.T) {
	src := New()
	emitN(src, 0, 2*chunkSize+100, "")
	st := src.CaptureState()
	want := make([][]byte, 4)
	for i := range want {
		r := New()
		emitN(r, 0, 2*chunkSize+100, "")
		emitN(r, 1<<20, 3000, strconv.Itoa(i))
		want[i] = r.Encode()
	}
	got := make([][]byte, len(want))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := New()
			r.RestoreState(st)
			emitN(r, 1<<20, 3000, strconv.Itoa(i))
			got[i] = r.Encode()
		}(i)
	}
	emitN(src, 1<<21, 5000, "src")
	wg.Wait()
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("restore %d encodes differently from a fresh recorder: %s", i, FirstDiff(got[i], want[i]))
		}
	}
}

// TestAppendEventsReadsEveryRecord checks the serializer's view of a
// stream against At: AppendEvents hands put every event in order, across
// chunk boundaries and on a captured state, and DetailBytes sums their
// details' lengths.
func TestAppendEventsReadsEveryRecord(t *testing.T) {
	for _, n := range []int{0, 1, chunkSize, 2*chunkSize + 3} {
		r := New()
		emitN(r, 0, n, "s")
		for _, s := range []*stream{&r.stream, &r.CaptureState().stream} {
			var got []Event
			s.AppendEvents(nil, func(b []byte, ev Event) []byte {
				got = append(got, ev)
				return b
			})
			want, details := s.Events(), 0
			for _, ev := range want {
				details += len(ev.Detail)
			}
			if len(got) != len(want) {
				t.Fatalf("%d events: AppendEvents passed %d", n, len(got))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%d events: event %d = %+v, At gives %+v", n, i, got[i], want[i])
				}
			}
			if s.DetailBytes() != details {
				t.Errorf("%d events: DetailBytes = %d, want %d", n, s.DetailBytes(), details)
			}
		}
	}
}
