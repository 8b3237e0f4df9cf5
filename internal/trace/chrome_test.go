package trace

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// edgeDetails exercise every escaping rule of the JSON and Go-quoted
// renderings: HTML-sensitive bytes, quotes and backslashes, control bytes,
// DEL, non-ASCII, the line and paragraph separators, and invalid UTF-8.
var edgeDetails = []string{
	"", "plain", `"quoted" \back\slash`, "<b>&amp;</b>", "tab\there\nnl\rcr\bbs\fff",
	"\x00\x01\x1f\x7f", "héllo 日本", "sep\u2028line\u2029para", "bad\xffutf8\xc3", "\xed\xa0\x80",
}

// edgeStream returns a stream with every kind (and an unknown one), the
// kernel task -1, paired and unpaired trap windows, and edgeDetails in
// every detail-bearing kind.
func edgeStream() []Event {
	var evs []Event
	c := uint64(0)
	add := func(e Event) {
		c += 97
		e.Cycle = c
		evs = append(evs, e)
	}
	add(Event{Kind: KindBoot, Task: -1, Arg: 5738})
	for i, d := range edgeDetails {
		add(Event{Kind: KindProgLoad, Task: -1, Arg: uint64(i) << 10, Arg2: 300, Detail: d})
		add(Event{Kind: KindTaskSpawn, Task: int32(i), Arg: 0x200, Arg2: 512, Detail: d})
	}
	for i := range edgeDetails {
		task := int32(i)
		add(Event{Kind: KindSwitch, Task: task, Arg: uint64(i), Arg2: 2298})
		add(Event{Kind: KindTrapEnter, Task: task, Arg: uint64(i % 14), Arg2: 1})
		add(Event{Kind: KindReloc, Task: task, Arg: 64, Arg2: 2710})
		add(Event{Kind: KindTrapExit, Task: task, Arg: uint64(i % 14), Arg2: 31})
		add(Event{Kind: KindPreempt, Task: task})
		add(Event{Kind: KindSliceCheck, Task: task})
		add(Event{Kind: KindMemFault, Task: task, Arg: 0x10FE, PC: 0x44, Detail: edgeDetails[i]})
		add(Event{Kind: KindWatch, Task: task, Arg: 0x310, Arg2: uint64(i % 2), PC: 0x20})
		add(Event{Kind: KindSleep, Task: task, Arg: c + 2048})
		add(Event{Kind: KindIdle, Task: -1, Arg: 40})
		add(Event{Kind: KindWake, Task: task})
		add(Event{Kind: KindInterrupt, Task: -1, Arg: 0x2E})
		add(Event{Kind: KindPower, Task: -1, Arg: PowerRadio, Arg2: 1})
		add(Event{Kind: Kind(200), Task: task, Arg: 1, Detail: "unknown"})
		add(Event{Kind: KindTaskExit, Task: task, Arg: 77, Detail: edgeDetails[i]})
		add(Event{Kind: KindRelease, Task: task, Arg: 512, Arg2: 100})
	}
	add(Event{Kind: KindTrapEnter, Task: 3, Arg: 7})
	add(Event{Kind: KindTrapEnter, Task: -1, Arg: 99})
	add(Event{Kind: KindTrapEnter, Task: 1, Arg: 2})
	add(Event{Kind: KindSwitch, Task: 2})
	add(Event{Kind: KindHalt, Task: -1, Detail: edgeDetails[6]})
	add(Event{Kind: KindBudget, Task: -1, Arg: 1 << 40})
	return evs
}

// edgeServiceName names classes with strings that need escaping.
func edgeServiceName(class uint64) string {
	return edgeDetails[class%uint64(len(edgeDetails))] + "#" + Kind(class).String()
}

// recorderOf returns a recorder fed events.
func recorderOf(events []Event) *Recorder {
	r := New()
	for _, e := range events {
		r.Emit(e)
	}
	return r
}

// requireChromeMatchesReference exports events both ways and requires the
// same outcome: the same error state and, on success, the same bytes.
func requireChromeMatchesReference(t *testing.T, events []Event, opt ChromeOptions) {
	t.Helper()
	var got, want bytes.Buffer
	errGot := recorderOf(events).WriteChrome(&got, opt)
	errWant := ReferenceWriteChrome(&want, events, opt)
	if (errGot == nil) != (errWant == nil) {
		t.Fatalf("ClockHz %v: WriteChrome error %v, reference error %v", opt.ClockHz, errGot, errWant)
	}
	if errGot == nil && !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("ClockHz %v: WriteChrome differs from the reference %s", opt.ClockHz, FirstDiff(got.Bytes(), want.Bytes()))
	}
}

// TestChromeMatchesReference checks the streaming exporter against the
// encoding/json reference on the edge stream under clocks that put ts and
// dur in json's exponent range on both sides (including the one-digit
// negative exponents json writes as e-7, not e-07), with and without a
// service namer, and with a process name that needs escaping.
func TestChromeMatchesReference(t *testing.T) {
	events := edgeStream()
	for _, hz := range []float64{0, 1e6, 7372800, 3, 1e-9, 1e-15, 3e13, 1e15, 1e27, 7e30, -1e6} {
		requireChromeMatchesReference(t, events, ChromeOptions{ClockHz: hz})
		requireChromeMatchesReference(t, events, ChromeOptions{
			ClockHz: hz, ServiceName: edgeServiceName, ProcessName: "node <\u2028\xff>",
		})
	}
	var out bytes.Buffer
	if err := recorderOf(events).WriteChrome(&out, ChromeOptions{ClockHz: 1e-15}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(out.Bytes(), []byte(`e+`)) || !bytes.HasSuffix(out.Bytes(), []byte("}\n")) {
		t.Errorf("export at ClockHz 1e-15 lacks exponent numbers or the trailing newline")
	}
}

// TestEncodeMatchesReference checks Recorder.Encode against the fmt
// reference on the edge stream.
func TestEncodeMatchesReference(t *testing.T) {
	r := New()
	for _, e := range edgeStream() {
		r.Emit(e)
	}
	r.Emit(Event{Cycle: math.MaxUint64, Kind: Kind(255), Task: math.MinInt32, Arg: math.MaxUint64,
		Arg2: math.MaxUint64, PC: math.MaxUint32, Detail: strings.Repeat("\xff\"", 40)})
	if got, want := r.Encode(), ReferenceEncode(r.Events()); !bytes.Equal(got, want) {
		t.Fatalf("Encode differs from the reference %s", FirstDiff(got, want))
	}
}

// chunkWriter records the size of every Write.
type chunkWriter struct {
	bytes.Buffer
	writes []int
}

func (w *chunkWriter) Write(p []byte) (int, error) {
	w.writes = append(w.writes, len(p))
	return w.Buffer.Write(p)
}

// TestWriteChromeStreamsInChunks checks that a large export reaches w as
// several bounded writes whose concatenation is the reference document.
func TestWriteChromeStreamsInChunks(t *testing.T) {
	var events []Event
	for i := 0; len(events) < 20000; i++ {
		c := uint64(i) * 1000
		events = append(events,
			Event{Cycle: c, Kind: KindTrapEnter, Task: 0, Arg: 1},
			Event{Cycle: c + 30, Kind: KindTrapExit, Task: 0, Arg: 1, Arg2: 29})
	}
	var w chunkWriter
	if err := recorderOf(events).WriteChrome(&w, ChromeOptions{}); err != nil {
		t.Fatal(err)
	}
	if len(w.writes) < 2 {
		t.Fatalf("%d-byte export arrived in %d write(s), want chunks", w.Len(), len(w.writes))
	}
	for i, n := range w.writes {
		if n > chromeChunk+1024 {
			t.Errorf("write %d is %d bytes, over the %d-byte chunk bound", i, n, chromeChunk+1024)
		}
	}
	requireChromeMatchesReference(t, events, ChromeOptions{})
}

// failWriter accepts limit bytes, then fails.
type failWriter struct{ limit int }

var errWriter = errors.New("writer failed")

func (w *failWriter) Write(p []byte) (int, error) {
	if len(p) > w.limit {
		return 0, errWriter
	}
	w.limit -= len(p)
	return len(p), nil
}

// TestWriteChromeErrors checks that a failing writer's error is returned,
// whether it fails on the first chunk, a later one, or the final flush,
// and that a clock making timestamps infinite or NaN fails the export (an
// infinite clock makes them all zero, which is valid).
func TestWriteChromeErrors(t *testing.T) {
	var events []Event
	for i := uint64(0); i < 10000; i++ {
		events = append(events, Event{Cycle: i * 100, Kind: KindSwitch, Task: int32(i % 3)})
	}
	r := recorderOf(events)
	for _, limit := range []int{0, chromeChunk + 1024, 1 << 30} {
		err := r.WriteChrome(&failWriter{limit: limit}, ChromeOptions{})
		if limit < 1<<30 && !errors.Is(err, errWriter) {
			t.Errorf("writer failing after %d bytes: err = %v, want errWriter", limit, err)
		}
		if limit == 1<<30 && err != nil {
			t.Errorf("unbounded writer: err = %v", err)
		}
	}
	if err := New().WriteChrome(&failWriter{}, ChromeOptions{}); !errors.Is(err, errWriter) {
		t.Errorf("empty stream on a failing writer: err = %v, want errWriter", err)
	}
	var out bytes.Buffer
	for _, hz := range []float64{1e-310, math.NaN(), math.Inf(1)} {
		err := r.WriteChrome(&out, ChromeOptions{ClockHz: hz})
		if !math.IsInf(hz, 0) && err == nil {
			t.Errorf("ClockHz %v: export of non-finite timestamps succeeded", hz)
		}
		requireChromeMatchesReference(t, events, ChromeOptions{ClockHz: hz})
	}
}

// fuzzEvents decodes a fuzz input into an event stream. Each event takes
// eight header bytes — kind, task, a cycle step and its shift, arg, arg2
// and a detail length — and then up to 15 detail bytes, so the fuzzer
// controls unknown kinds, task -1 and outliers, unpaired trap windows,
// cycle wrap-around, and arbitrary detail bytes.
func fuzzEvents(data []byte) []Event {
	var evs []Event
	var cycle uint64
	for len(data) >= 8 {
		h := data[:8]
		data = data[8:]
		e := Event{Kind: Kind(h[0] % 24), Task: int32(h[1]%6) - 1}
		if h[0] >= 240 {
			e.Kind = Kind(h[0])
		}
		if h[1] >= 250 {
			e.Task = math.MaxInt32 - int32(h[1]-250)
		}
		cycle += uint64(binary.LittleEndian.Uint16(h[2:4])) << (h[4] % 60)
		e.Cycle = cycle
		e.Arg = uint64(h[5])
		if h[5] >= 0xF0 {
			e.Arg = cycle << 1 // idle spans reaching before cycle 0
		}
		e.Arg2 = uint64(h[6])
		e.PC = uint32(h[5])<<8 | uint32(h[6])
		n := min(int(h[7]%16), len(data))
		e.Detail = string(data[:n])
		data = data[n:]
		evs = append(evs, e)
	}
	return evs
}

// FuzzTraceExport emits generated event streams into a Recorder and
// compares its WriteChrome and Encode with their encoding/json and fmt
// references. Each stream is repeated until it crosses a chunk boundary,
// so every detail recurs and the recorder interns it.
func FuzzTraceExport(f *testing.F) {
	var seed []byte
	for _, e := range edgeStream() {
		d := e.Detail
		if len(d) > 15 {
			d = d[:15]
		}
		seed = append(seed, byte(e.Kind), byte(e.Task+1), 97, 0, 0, byte(e.Arg), byte(e.Arg2), byte(len(d)))
		seed = append(seed, d...)
	}
	for _, hz := range []float64{0, 7372800, 1e-9, 1e15, 1e27, 3, -1e6} {
		f.Add(seed, math.Float64bits(hz), "sensmart node", true)
	}
	f.Add([]byte("\x08\x01\x10\x00\x00\x01\x00\x03<&>\x08\x02\x10\x00\x30\x02\x00\x00"), math.Float64bits(1e-300), "\u2028\xff", false)
	// The same invalid-UTF-8 detail on a spawn and a halt, then another.
	f.Add([]byte("\x03\x01\x10\x00\x00\x01\x00\x02\xff\xfe\x11\x00\x10\x00\x00\x00\x00\x02\xff\xfe\x11\x00\x01\x00\x00\x00\x00\x01\xc3"), math.Float64bits(7372800), "sensmart node", true)
	f.Fuzz(func(t *testing.T, data []byte, hzBits uint64, proc string, named bool) {
		hz := math.Float64frombits(hzBits)
		events := fuzzEvents(data)
		if n := len(events); n > 0 {
			for len(events) <= chunkSize {
				events = append(events, events[:n]...)
			}
		}
		opt := ChromeOptions{ClockHz: hz, ProcessName: proc}
		if named {
			opt.ServiceName = edgeServiceName
		}
		requireChromeMatchesReference(t, events, opt)
		if got, want := recorderOf(events).Encode(), ReferenceEncode(events); !bytes.Equal(got, want) {
			t.Fatalf("Encode differs from the reference %s", FirstDiff(got, want))
		}
	})
}

// TestTrapPairsManyOpenTasks fills the pairing table with 10^5 distinct
// tasks, each holding an open trap, under id patterns that defeat a weak
// hash: consecutive, descending, strided by 2^14 and random. The mean probe
// length must stay a small constant, so an export of such a stream is
// linear in its length, and every window must pair with its own enter.
func TestTrapPairsManyOpenTasks(t *testing.T) {
	const n = 100_000
	rng := rand.New(rand.NewSource(5))
	seen := map[int32]bool{}
	for name, id := range map[string]func(i int) int32{
		"consecutive": func(i int) int32 { return int32(i) },
		"descending":  func(i int) int32 { return math.MaxInt32 - int32(i) },
		"strided":     func(i int) int32 { return int32(i) << 14 },
		"random": func(int) int32 {
			for {
				if id := int32(rng.Uint32()); !seen[id] {
					seen[id] = true
					return id
				}
			}
		},
	} {
		p := newTrapPairs()
		tasks := make([]int32, n)
		for i := range tasks {
			tasks[i] = id(i)
			p.enter(tasks[i], uint64(i), uint64(i%14))
		}
		probes := 0
		mask := uint64(len(p.slots) - 1)
		for i, sl := range p.slots {
			if sl.taken {
				probes += int((uint64(i)-p.home(sl.task))&mask) + 1
			}
		}
		t.Logf("%s %v", name, float64(probes)/float64(p.used))
		if mean := float64(probes) / float64(p.used); mean > 4 {
			t.Errorf("%s ids: %.1f probes per lookup over %d tasks, want a small constant", name, mean, p.used)
		}
		for i := n - 1; i >= 0; i -= 2 {
			from, ok := p.exit(tasks[i])
			if !ok || tasks[from] != tasks[i] {
				t.Fatalf("%s ids: exit of task %d paired with enter %d (ok %v)", name, tasks[i], from, ok)
			}
		}
	}
}

// TestWriteChromeManyOpenTraps exports a stream where 10^5 distinct tasks
// each leave a trap open, then close half of them in reverse order, and
// requires the reference bytes within a generous time bound: a pairing
// that scanned the open enters would take ~10^10 steps.
func TestWriteChromeManyOpenTraps(t *testing.T) {
	const n = 100_000
	events := make([]Event, 0, n+n/2+1)
	for i := 0; i < n; i++ {
		events = append(events, Event{Cycle: uint64(i) * 10, Kind: KindTrapEnter, Task: int32(i) * 7, Arg: uint64(i % 14)})
	}
	for i := n - 1; i >= 0; i -= 2 {
		events = append(events, Event{Cycle: uint64(2*n-i) * 10, Kind: KindTrapExit, Task: int32(i) * 7, Arg: uint64(i % 14), Arg2: 31})
	}
	events = append(events, Event{Cycle: 30 * n, Kind: KindBudget, Task: -1, Arg: 30 * n})
	r := recorderOf(events)
	start := time.Now()
	if err := r.WriteChrome(io.Discard, ChromeOptions{}); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Errorf("export of %d open traps took %v", n, d)
	}
	requireChromeMatchesReference(t, events, ChromeOptions{})
}

// TestWriteChromeUnpairedInTaskOrder checks that enters still open at
// stream end are flushed as slices to the last stamp in task order,
// whatever order they were opened in, that a re-entered task keeps only
// its latest enter, and that an exit with no open enter renders nothing.
func TestWriteChromeUnpairedInTaskOrder(t *testing.T) {
	events := []Event{
		{Cycle: 5, Kind: KindTrapExit, Task: 40, Arg: 9},
		{Cycle: 10, Kind: KindTrapEnter, Task: 40, Arg: 1},
		{Cycle: 20, Kind: KindTrapEnter, Task: -1, Arg: 2},
		{Cycle: 30, Kind: KindTrapEnter, Task: 3, Arg: 3},
		{Cycle: 40, Kind: KindTrapEnter, Task: math.MaxInt32, Arg: 4},
		{Cycle: 50, Kind: KindTrapEnter, Task: 7, Arg: 5},
		{Cycle: 60, Kind: KindTrapExit, Task: 7, Arg: 5},
		{Cycle: 65, Kind: KindTrapExit, Task: 7, Arg: 5},
		{Cycle: 70, Kind: KindTrapEnter, Task: 3, Arg: 6},
		{Cycle: 80, Kind: KindTrapEnter, Task: math.MinInt32, Arg: 7},
		{Cycle: 90, Kind: KindBudget, Task: -1, Arg: 90},
	}
	var out bytes.Buffer
	if err := recorderOf(events).WriteChrome(&out, ChromeOptions{ClockHz: 1e6}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string
			TS   float64
			Dur  float64
			TID  int
		}
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	evs := doc.TraceEvents
	if len(evs) != 9 {
		t.Fatalf("%d events exported, want 2 metadata, 1 paired, the budget and 5 unpaired", len(evs))
	}
	var got []string
	for _, e := range evs[len(evs)-5:] {
		got = append(got, fmt.Sprintf("%s@%v+%v/tid%d", e.Name, e.TS, e.Dur, e.TID))
	}
	want := []string{
		"ktrap:class7@80+10/tid0",
		"ktrap:class2@20+70/tid0",
		"ktrap:class6@70+20/tid4",
		"ktrap:class1@10+80/tid41",
		"ktrap:class4@40+50/tid2147483648",
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("unpaired flush = %v, want %v", got, want)
	}
	requireChromeMatchesReference(t, events, ChromeOptions{ClockHz: 1e6})
}
