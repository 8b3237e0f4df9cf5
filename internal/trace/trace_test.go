package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestRecorderEmitAndEncode(t *testing.T) {
	r := New()
	r.Emit(Event{Cycle: 10, Kind: KindBoot, Task: -1, Arg: 5738})
	r.Emit(Event{Cycle: 20, Kind: KindTaskSpawn, Task: 0, Arg: 0x200, Arg2: 512, Detail: "blink"})
	r.Emit(Event{Cycle: 30, Kind: KindSwitch, Task: 0, Arg: 0, Arg2: 2298})
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3", r.Len())
	}
	if r.Dropped() != 0 {
		t.Fatalf("Dropped = %d, want 0", r.Dropped())
	}
	enc := r.Encode()
	want := "10 1 -1 5738 0 0 \"\"\n20 3 0 512 512 0 \"blink\"\n30 5 0 0 2298 0 \"\"\n"
	// Arg of the spawn line is 0x200 = 512.
	if string(enc) != want {
		t.Fatalf("Encode:\n%s\nwant:\n%s", enc, want)
	}
	r2 := New()
	for _, e := range r.Events() {
		r2.Emit(e)
	}
	if !bytes.Equal(r.Encode(), r2.Encode()) {
		t.Fatal("replayed stream encodes differently")
	}
	r.Reset()
	if r.Len() != 0 || len(r.Encode()) != 0 {
		t.Fatal("Reset did not clear events")
	}
}

func TestRecorderLimit(t *testing.T) {
	r := NewLimited(2)
	for i := 0; i < 5; i++ {
		r.Emit(Event{Cycle: uint64(i), Kind: KindSliceCheck})
	}
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2", r.Len())
	}
	if r.Dropped() != 3 {
		t.Fatalf("Dropped = %d, want 3", r.Dropped())
	}
}

func TestNilRecorderIsDisabled(t *testing.T) {
	// The disabled state is a nil pointer; emitters nil-check. This test
	// pins the idiom used across mcu/kernel.
	var r *Recorder
	if r != nil {
		t.Fatal("nil recorder must compare nil")
	}
	allocs := testing.AllocsPerRun(100, func() {
		if r != nil {
			r.Emit(Event{})
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled emit allocates %v times", allocs)
	}
}

func TestTaskNames(t *testing.T) {
	events := []Event{
		{Kind: KindTaskSpawn, Task: 0, Detail: "alpha"},
		{Kind: KindTaskSpawn, Task: 1, Detail: "beta"},
		{Kind: KindTaskExit, Task: 0, Detail: "exit"},
	}
	names := recorderOf(events).TaskNames()
	if names[0] != "alpha" || names[1] != "beta" || len(names) != 2 {
		t.Fatalf("TaskNames = %v", names)
	}
}

func TestEventFormat(t *testing.T) {
	name := func(id int32) string { return map[int32]string{0: "alpha", 1: "beta"}[id] }
	cases := []struct {
		e    Event
		want string
	}{
		{Event{Cycle: 1, Kind: KindBoot, Task: -1, Arg: 5738}, "[1] boot (5738 init cycles)"},
		{Event{Cycle: 2, Kind: KindSwitch, Task: 1, Arg: 1, Arg2: 2298}, "[2] switch alpha -> beta (2298 cycles)"},
		{Event{Cycle: 3, Kind: KindSwitch, Task: 0, Arg: 0, Arg2: 2298}, "[3] switch idle -> alpha (2298 cycles)"},
		{Event{Cycle: 4, Kind: KindTrapExit, Task: 0, Arg: 5, Arg2: 30}, "[4] ktrap exit alpha class=5 charged=30"},
		{Event{Cycle: 5, Kind: KindIdle, Task: -1, Arg: 100}, "[5] idle 100 cycles"},
		{Event{Cycle: 6, Kind: KindHalt, Task: -1, Detail: "all tasks exited"}, "[6] halt: all tasks exited"},
	}
	for _, c := range cases {
		if got := c.e.Format(name); got != c.want {
			t.Errorf("Format(%v) = %q, want %q", c.e.Kind, got, c.want)
		}
	}
	// nil resolver prints raw ids and must not panic.
	got := Event{Cycle: 7, Kind: KindPreempt, Task: 2}.Format(nil)
	if got != "[7] preempt task2" {
		t.Errorf("Format(nil) = %q", got)
	}
}

func TestKindString(t *testing.T) {
	for k := KindBoot; k <= KindWatch; k++ {
		if s := k.String(); strings.HasPrefix(s, "kind(") {
			t.Errorf("Kind %d has no name", uint8(k))
		}
	}
	if s := Kind(200).String(); s != "kind(200)" {
		t.Errorf("unknown kind = %q", s)
	}
}

func TestWriteChrome(t *testing.T) {
	events := []Event{
		{Cycle: 0, Kind: KindBoot, Task: -1, Arg: 5738},
		{Cycle: 10, Kind: KindTaskSpawn, Task: 0, Arg: 0x200, Arg2: 512, Detail: "alpha"},
		{Cycle: 20, Kind: KindTaskSpawn, Task: 1, Arg: 0x400, Arg2: 512, Detail: "beta"},
		{Cycle: 100, Kind: KindSwitch, Task: 0, Arg: 0, Arg2: 2298},
		{Cycle: 200, Kind: KindTrapEnter, Task: 0, Arg: 1},
		{Cycle: 230, Kind: KindTrapExit, Task: 0, Arg: 1, Arg2: 29},
		{Cycle: 300, Kind: KindSwitch, Task: 1, Arg: 1, Arg2: 2298},
		{Cycle: 350, Kind: KindReloc, Task: 1, Arg: 64, Arg2: 2710},
		{Cycle: 400, Kind: KindTaskExit, Task: 1, Arg: 77, Detail: "exit syscall"},
		{Cycle: 420, Kind: KindIdle, Task: -1, Arg: 20},
		{Cycle: 500, Kind: KindHalt, Task: -1, Detail: "done"},
	}
	var buf bytes.Buffer
	if err := recorderOf(events).WriteChrome(&buf, ChromeOptions{ClockHz: 1e6, ServiceName: func(c uint64) string { return "branch" }}); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			TS    float64        `json:"ts"`
			Dur   float64        `json:"dur"`
			PID   int            `json:"pid"`
			TID   int            `json:"tid"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if file.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", file.DisplayTimeUnit)
	}
	var gotRunning, gotKtrap, gotIdle, gotThreadNames int
	for _, e := range file.TraceEvents {
		switch {
		case e.Name == "running" && e.Phase == "X":
			gotRunning++
			if e.TID == 0 {
				t.Error("running slice on kernel tid")
			}
		case e.Name == "ktrap:branch" && e.Phase == "X":
			gotKtrap++
			// 30 cycles at 1 MHz = 30 us.
			if e.TS != 200 || e.Dur != 30 {
				t.Errorf("ktrap slice ts=%v dur=%v, want 200/30", e.TS, e.Dur)
			}
		case e.Name == "idle" && e.Phase == "X":
			gotIdle++
			if e.TS != 400 || e.Dur != 20 {
				t.Errorf("idle slice ts=%v dur=%v, want 400/20", e.TS, e.Dur)
			}
		case e.Name == "thread_name":
			gotThreadNames++
		}
	}
	// alpha runs 100->300, beta 300->400 (closed by its exit).
	if gotRunning != 2 {
		t.Errorf("running slices = %d, want 2", gotRunning)
	}
	if gotKtrap != 1 {
		t.Errorf("ktrap slices = %d, want 1", gotKtrap)
	}
	if gotIdle != 1 {
		t.Errorf("idle slices = %d, want 1", gotIdle)
	}
	if gotThreadNames != 3 { // kernel + 2 tasks
		t.Errorf("thread_name metadata = %d, want 3", gotThreadNames)
	}

	// Export is deterministic byte-for-byte.
	var buf2 bytes.Buffer
	if err := recorderOf(events).WriteChrome(&buf2, ChromeOptions{ClockHz: 1e6, ServiceName: func(c uint64) string { return "branch" }}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("WriteChrome output is not deterministic")
	}
}

func TestWriteChromeUnpairedTrap(t *testing.T) {
	events := []Event{
		{Cycle: 10, Kind: KindTaskSpawn, Task: 0, Detail: "alpha"},
		{Cycle: 100, Kind: KindSwitch, Task: 0},
		{Cycle: 200, Kind: KindTrapEnter, Task: 0, Arg: 4},
		{Cycle: 250, Kind: KindBudget, Task: -1, Arg: 250},
	}
	var buf bytes.Buffer
	if err := recorderOf(events).WriteChrome(&buf, ChromeOptions{ClockHz: 1e6}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "ktrap:class4") {
		t.Error("unpaired trap enter not closed at stream end")
	}
}

func TestMetricsRender(t *testing.T) {
	m := &Metrics{
		TotalCycles: 1000, IdleCycles: 100, KernelCycles: 300, AppCycles: 600,
		ServiceOverheadCycles: 150, SwitchCycles: 100, RelocCycles: 30, BootCycles: 20,
		ContextSwitches: 4, Preemptions: 2, SliceChecks: 8, BranchTraps: 2048,
		Relocations: 1, RelocatedBytes: 64, Terminations: 2,
		Services: []ServiceMetrics{{Class: 1, Name: "branch", Calls: 2048, Cycles: 6144, Overhead: 4096}},
		Tasks: []TaskMetrics{{
			ID: 0, Name: "alpha", State: "terminated", ExitReason: "exit syscall",
			RunCycles: 500, KernelCycles: 120, AppCycles: 380, Utilization: 0.55,
			Traps: 1024, StackPeak: 77, StackAlloc: 128, Relocations: 1,
		}},
		Events: 42,
	}
	if got := m.OverheadRatio(); got < 0.333 || got > 0.334 {
		t.Errorf("OverheadRatio = %v", got)
	}
	out := m.Render()
	for _, want := range []string{"1000 cycles total", "branch", "alpha", "terminated: exit syscall", "42 events"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q in:\n%s", want, out)
		}
	}
	empty := &Metrics{}
	if empty.OverheadRatio() != 0 {
		t.Error("zero-cycle OverheadRatio should be 0")
	}
}

func TestSortServices(t *testing.T) {
	s := []ServiceMetrics{{Class: 9}, {Class: 1}, {Class: 4}}
	SortServices(s)
	if s[0].Class != 1 || s[1].Class != 4 || s[2].Class != 9 {
		t.Fatalf("SortServices = %v", s)
	}
}
