package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"strings"
	"testing"
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
