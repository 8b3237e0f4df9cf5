package trace

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"unicode/utf8"
)

// ChromeOptions tunes the Chrome trace_event export.
type ChromeOptions struct {
	// ClockHz converts cycle stamps to microseconds (ts = cycle/ClockHz*1e6).
	// 0 selects the MICA2 clock, 7.3728 MHz.
	ClockHz float64
	// ServiceName renders a KTRAP service class id (Event.Arg of the trap
	// kinds) as a slice name. nil prints the numeric class. The exporter
	// asks once per class and reuses the answer, so it must depend on the
	// class alone.
	ServiceName func(class uint64) string
	// ProcessName labels the emitted process. Empty selects "sensmart node".
	ProcessName string
}

// kernelTID is the synthetic thread the exporter books machine- and
// kernel-global events (interrupts, idle, boot) onto; task i maps to
// thread i+1.
const kernelTID = 0

// chromeChunk is the buffered size at which WriteChrome hands its output to
// w, so the export holds one chunk in memory rather than the whole document.
const chromeChunk = 64 << 10

// WriteChrome exports the event stream as Chrome trace_event JSON: context
// switches become per-task "running" slices, KTRAP enter/exit pairs become
// nested service slices, and the remaining kinds become instant events.
// Load the output in chrome://tracing or https://ui.perfetto.dev.
//
// The bytes are exactly what encoding/json renders for the document
// {"traceEvents":[...],"displayTimeUnit":"ms"} plus a trailing newline:
// event fields in the order name, ph, ts, dur, pid, tid, s, args, with dur,
// s and args omitted when empty; args keys sorted; numbers and HTML-safe
// strings formatted as encoding/json formats them. The document is built
// in one pass and written to w in chunks of about 64 KiB. A timestamp that
// is not finite (a degenerate ClockHz) fails the export as encoding/json
// fails it, but w may by then hold a prefix of the document.
func WriteChrome(w io.Writer, events []Event, opt ChromeOptions) error {
	if opt.ClockHz == 0 {
		opt.ClockHz = 7372800
	}
	if opt.ProcessName == "" {
		opt.ProcessName = "sensmart node"
	}
	c := &chromeWriter{w: w, opt: opt, buf: make([]byte, 0, chromeChunk+1024)}
	c.buf = append(c.buf, `{"traceEvents":[`...)
	c.meta("process_name", kernelTID, opt.ProcessName)
	c.meta("thread_name", kernelTID, "kernel")
	names := TaskNames(events)
	ids := make([]int32, 0, len(names))
	for id := range names {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		c.meta("thread_name", chromeTID(id), names[id])
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
			c.slice("running", curTask, curStart, to)
			c.end()
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
			c.instant("task-exit: ", e.Detail, e)
			c.args1("stack_peak", e.Arg)
		case KindTrapEnter:
			trapOpen[e.Task] = e
		case KindTrapExit:
			if enter, ok := trapOpen[e.Task]; ok {
				delete(trapOpen, e.Task)
				c.slice(c.ktrapName(e.Arg), e.Task, enter.Cycle, e.Cycle)
				c.args1("charged_cycles", e.Arg2)
			}
		case KindIdle:
			c.slice("idle", -1, e.Cycle-e.Arg, e.Cycle)
			c.end()
		case KindBoot:
			c.instant("boot", "", e)
			c.args1("init_cycles", e.Arg)
		case KindProgLoad:
			c.instant("load: ", e.Detail, e)
			c.args2("flash_base", e.Arg, "words", e.Arg2)
		case KindTaskSpawn:
			c.instant("spawn: ", e.Detail, e)
			c.args2("region_base", e.Arg, "region_size", e.Arg2)
		case KindPreempt:
			c.instant("preempt", "", e)
			c.end()
		case KindReloc:
			c.instant("stack-reloc", "", e)
			c.args2("bytes", e.Arg, "cycles", e.Arg2)
		case KindRelease:
			c.instant("region-release", "", e)
			c.args2("bytes", e.Arg, "cycles", e.Arg2)
		case KindMemFault:
			c.instant("mem-fault", "", e)
			c.args2("addr", e.Arg, "pc", uint64(e.PC))
		case KindWatch:
			name := "watch-read"
			if e.Arg2 != 0 {
				name = "watch-write"
			}
			c.instant(name, "", e)
			c.args2("addr", e.Arg, "pc", uint64(e.PC))
		case KindSleep:
			c.instant("sleep", "", e)
			c.args1("wake_at", e.Arg)
		case KindWake:
			c.instant("wake", "", e)
			c.end()
		case KindInterrupt:
			c.instant("interrupt", "", e)
			c.args1("vector", e.Arg)
		case KindHalt:
			endRun(e.Cycle)
			c.instant("halt: ", e.Detail, e)
			c.end()
		case KindBudget:
			c.instant("budget-exhausted", "", e)
			c.args1("limit", e.Arg)
		}
		if c.err != nil {
			return c.err
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
		c.slice(c.ktrapName(enter.Arg), task, enter.Cycle, lastC)
		c.end()
	}
	c.buf = append(c.buf, "],\"displayTimeUnit\":\"ms\"}\n"...)
	c.flush()
	return c.err
}

// chromeTID maps a task id to its thread id.
func chromeTID(task int32) int {
	if task < 0 {
		return kernelTID
	}
	return int(task) + 1
}

// chromeWriter appends trace_event objects to buf and flushes it to w each
// time it passes chromeChunk. Names passed to its methods are JSON string
// contents that need no escaping; detail strings are escaped. Every object
// is begun by slice, instant or meta and finished by end, args1 or args2.
type chromeWriter struct {
	w     io.Writer
	opt   ChromeOptions
	buf   []byte
	n     int // objects begun
	err   error
	ktrap [16]string // escaped "ktrap:<service>" names by class
}

// ktrapName returns the escaped slice name of a KTRAP service class,
// consulting ServiceName once per class.
func (c *chromeWriter) ktrapName(class uint64) string {
	if class < uint64(len(c.ktrap)) && c.ktrap[class] != "" {
		return c.ktrap[class]
	}
	var svc string
	if c.opt.ServiceName != nil {
		svc = c.opt.ServiceName(class)
	} else {
		svc = "class" + strconv.FormatUint(class, 10)
	}
	name := string(appendJSONText([]byte("ktrap:"), svc))
	if class < uint64(len(c.ktrap)) {
		c.ktrap[class] = name
	}
	return name
}

// begin opens an object with its name (name followed by the escaped
// detail), phase and timestamp.
func (c *chromeWriter) begin(name, detail, ph string, ts float64) {
	if c.n > 0 {
		c.buf = append(c.buf, ',')
	}
	c.n++
	c.buf = append(c.buf, `{"name":"`...)
	c.buf = append(c.buf, name...)
	c.buf = appendJSONText(c.buf, detail)
	c.buf = append(c.buf, `","ph":"`...)
	c.buf = append(c.buf, ph...)
	c.buf = append(c.buf, `","ts":`...)
	c.number(ts)
}

func (c *chromeWriter) tid(tid int) {
	c.buf = append(c.buf, `,"pid":0,"tid":`...)
	c.buf = strconv.AppendInt(c.buf, int64(tid), 10)
}

func (c *chromeWriter) us(cycle uint64) float64 { return float64(cycle) / c.opt.ClockHz * 1e6 }

// slice begins a complete ("X") event spanning [from, to) on task's thread.
func (c *chromeWriter) slice(name string, task int32, from, to uint64) {
	c.begin(name, "", "X", c.us(from))
	c.buf = append(c.buf, `,"dur":`...)
	c.number(c.us(to) - c.us(from))
	c.tid(chromeTID(task))
}

// instant begins a thread-scoped instant ("i") event at e's stamp.
func (c *chromeWriter) instant(name, detail string, e Event) {
	c.begin(name, detail, "i", c.us(e.Cycle))
	c.tid(chromeTID(e.Task))
	c.buf = append(c.buf, `,"s":"t"`...)
}

// meta writes a complete metadata ("M") event naming a process or thread.
func (c *chromeWriter) meta(name string, tid int, value string) {
	c.begin(name, "", "M", 0)
	c.tid(tid)
	c.buf = append(c.buf, `,"args":{"name":"`...)
	c.buf = appendJSONText(c.buf, value)
	c.buf = append(c.buf, `"}`...)
	c.end()
}

// args1 and args2 finish the object with its args; keys come sorted.
func (c *chromeWriter) args1(key string, v uint64) {
	c.buf = append(c.buf, `,"args":{"`...)
	c.arg(key, v)
	c.buf = append(c.buf, '}')
	c.end()
}

func (c *chromeWriter) args2(key1 string, v1 uint64, key2 string, v2 uint64) {
	c.buf = append(c.buf, `,"args":{"`...)
	c.arg(key1, v1)
	c.buf = append(c.buf, `,"`...)
	c.arg(key2, v2)
	c.buf = append(c.buf, '}')
	c.end()
}

func (c *chromeWriter) arg(key string, v uint64) {
	c.buf = append(c.buf, key...)
	c.buf = append(c.buf, `":`...)
	c.buf = strconv.AppendUint(c.buf, v, 10)
}

// end closes the object and flushes a full chunk.
func (c *chromeWriter) end() {
	c.buf = append(c.buf, '}')
	if len(c.buf) >= chromeChunk {
		c.flush()
	}
}

func (c *chromeWriter) flush() {
	if c.err == nil && len(c.buf) > 0 {
		_, c.err = c.w.Write(c.buf)
	}
	c.buf = c.buf[:0]
}

// number appends f the way encoding/json renders a float64, and fails the
// export on a value JSON cannot represent.
func (c *chromeWriter) number(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if c.err == nil {
			c.err = fmt.Errorf("trace: chrome export: unsupported value %v (ClockHz %v)", f, c.opt.ClockHz)
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	c.buf = strconv.AppendFloat(c.buf, f, format, -1, 64)
	if n := len(c.buf); format == 'e' && c.buf[n-4] == 'e' && c.buf[n-3] == '-' && c.buf[n-2] == '0' {
		// Like encoding/json, write e-07 as e-7.
		c.buf[n-2] = c.buf[n-1]
		c.buf = c.buf[:n-1]
	}
}

// jsonSafe marks the ASCII bytes encoding/json copies into a string
// unescaped with HTML escaping on: printable bytes other than " \ < > &.
var jsonSafe = func() (safe [utf8.RuneSelf]bool) {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		switch b {
		case '"', '\\', '<', '>', '&':
		default:
			safe[b] = true
		}
	}
	return safe
}()

// appendJSONText appends s escaped as JSON string contents, byte for byte as
// encoding/json escapes it: \" \\ \b \f \n \r \t, \u00XX for the other
// control bytes and for < > &, \u2028 and \u2029 for the line and
// paragraph separators, and \ufffd for each byte of invalid UTF-8.
func appendJSONText(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if jsonSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(dst, s[start:]...)
}
