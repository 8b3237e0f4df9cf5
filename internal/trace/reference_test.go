package trace

// The reference exporters below are the reflection- and fmt-based
// renderings the streaming exporters in chrome.go and trace.go replaced.
// They are the oracle of the byte-identity tests (oracle_test.go,
// FuzzTraceExport): the goldens elsewhere are produced by the exporter under
// test, so only an independent rendering catches a drift. They are exported
// so the external oracle test package can reach them.

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// refChromeEvent is one entry of the trace_event JSON array. Field order and
// json marshalling are deterministic, so identical streams export to
// identical bytes.
type refChromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   *float64       `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// refChromeFile is the containing JSON object Perfetto and chrome://tracing
// both accept.
type refChromeFile struct {
	TraceEvents     []refChromeEvent `json:"traceEvents"`
	DisplayTimeUnit string           `json:"displayTimeUnit"`
}

// ReferenceWriteChrome is the encoding/json rendering WriteChrome must
// reproduce byte for byte. It is kept verbatim as a test oracle: do not
// optimize it.
func ReferenceWriteChrome(w io.Writer, events []Event, opt ChromeOptions) error {
	if opt.ClockHz == 0 {
		opt.ClockHz = 7372800
	}
	if opt.ProcessName == "" {
		opt.ProcessName = "sensmart node"
	}
	svcName := func(class uint64) string {
		if opt.ServiceName != nil {
			return opt.ServiceName(class)
		}
		return fmt.Sprintf("class%d", class)
	}
	us := func(cycle uint64) float64 { return float64(cycle) / opt.ClockHz * 1e6 }
	tid := func(task int32) int {
		if task < 0 {
			return kernelTID
		}
		return int(task) + 1
	}

	out := []refChromeEvent{{
		Name: "process_name", Phase: "M", PID: 0, TID: kernelTID,
		Args: map[string]any{"name": opt.ProcessName},
	}, {
		Name: "thread_name", Phase: "M", PID: 0, TID: kernelTID,
		Args: map[string]any{"name": "kernel"},
	}}
	names := TaskNames(events)
	ids := make([]int32, 0, len(names))
	for id := range names {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		out = append(out, refChromeEvent{
			Name: "thread_name", Phase: "M", PID: 0, TID: tid(id),
			Args: map[string]any{"name": names[id]},
		})
	}

	slice := func(name string, task int32, from, to uint64, args map[string]any) {
		d := us(to) - us(from)
		out = append(out, refChromeEvent{
			Name: name, Phase: "X", TS: us(from), Dur: &d, PID: 0, TID: tid(task), Args: args,
		})
	}
	instant := func(name string, e Event, args map[string]any) {
		out = append(out, refChromeEvent{
			Name: name, Phase: "i", TS: us(e.Cycle), PID: 0, TID: tid(e.Task), Scope: "t", Args: args,
		})
	}

	// Pair running intervals and trap windows while walking the stream.
	var (
		curTask  int32 = -1
		curStart uint64
		trapOpen = map[int32]Event{}
		lastC    uint64
	)
	endRun := func(to uint64) {
		if curTask >= 0 {
			slice("running", curTask, curStart, to, nil)
			curTask = -1
		}
	}
	for _, e := range events {
		lastC = e.Cycle
		switch e.Kind {
		case KindSwitch:
			endRun(e.Cycle)
			curTask, curStart = e.Task, e.Cycle
		case KindTaskExit:
			if e.Task == curTask {
				endRun(e.Cycle)
			}
			instant("task-exit: "+e.Detail, e, map[string]any{"stack_peak": e.Arg})
		case KindTrapEnter:
			trapOpen[e.Task] = e
		case KindTrapExit:
			if enter, ok := trapOpen[e.Task]; ok {
				delete(trapOpen, e.Task)
				slice("ktrap:"+svcName(e.Arg), e.Task, enter.Cycle, e.Cycle,
					map[string]any{"charged_cycles": e.Arg2})
			}
		case KindIdle:
			slice("idle", -1, e.Cycle-e.Arg, e.Cycle, nil)
		case KindBoot:
			instant("boot", e, map[string]any{"init_cycles": e.Arg})
		case KindProgLoad:
			instant("load: "+e.Detail, e, map[string]any{"flash_base": e.Arg, "words": e.Arg2})
		case KindTaskSpawn:
			instant("spawn: "+e.Detail, e, map[string]any{"region_base": e.Arg, "region_size": e.Arg2})
		case KindPreempt:
			instant("preempt", e, nil)
		case KindReloc:
			instant("stack-reloc", e, map[string]any{"bytes": e.Arg, "cycles": e.Arg2})
		case KindRelease:
			instant("region-release", e, map[string]any{"bytes": e.Arg, "cycles": e.Arg2})
		case KindMemFault:
			instant("mem-fault", e, map[string]any{"addr": e.Arg, "pc": e.PC})
		case KindWatch:
			rw := "read"
			if e.Arg2 != 0 {
				rw = "write"
			}
			instant("watch-"+rw, e, map[string]any{"addr": e.Arg, "pc": e.PC})
		case KindSleep:
			instant("sleep", e, map[string]any{"wake_at": e.Arg})
		case KindWake:
			instant("wake", e, nil)
		case KindInterrupt:
			instant("interrupt", e, map[string]any{"vector": e.Arg})
		case KindHalt:
			endRun(e.Cycle)
			instant("halt: "+e.Detail, e, nil)
		case KindBudget:
			instant("budget-exhausted", e, map[string]any{"limit": e.Arg})
		}
	}
	endRun(lastC)
	open := make([]int32, 0, len(trapOpen))
	for task := range trapOpen {
		open = append(open, task)
	}
	sort.Slice(open, func(i, j int) bool { return open[i] < open[j] })
	for _, task := range open {
		// An unpaired enter at stream end (budget expired mid-service).
		enter := trapOpen[task]
		slice("ktrap:"+svcName(enter.Arg), task, enter.Cycle, lastC, nil)
	}

	enc := json.NewEncoder(w)
	return enc.Encode(refChromeFile{TraceEvents: out, DisplayTimeUnit: "ms"})
}

// ReferenceEncode is the fmt.Fprintf rendering Recorder.Encode must
// reproduce byte for byte, kept verbatim as a test oracle.
func ReferenceEncode(events []Event) []byte {
	var b strings.Builder
	for _, e := range events {
		fmt.Fprintf(&b, "%d %d %d %d %d %d %q\n", e.Cycle, uint8(e.Kind), e.Task, e.Arg, e.Arg2, e.PC, e.Detail)
	}
	return []byte(b.String())
}

// FirstDiff describes where two renderings first differ, with the bytes
// around that offset on both sides.
func FirstDiff(got, want []byte) string {
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := max(i-60, 0)
	return fmt.Sprintf("at byte %d of %d/%d: got %q, want %q", i, len(got), len(want),
		got[lo:min(i+60, len(got))], want[lo:min(i+60, len(want))])
}
