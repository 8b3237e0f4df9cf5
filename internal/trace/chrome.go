package trace

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"
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

// defaultClockHz is the clock a zero ChromeOptions.ClockHz selects: the
// MICA2 CPU clock, 7.3728 MHz.
const defaultClockHz = 7372800

// kernelTID is the synthetic thread the exporter books machine- and
// kernel-global events (interrupts, idle, boot) onto; task i maps to
// thread i+1.
const kernelTID = 0

// chromeChunk is the buffered size at which WriteChrome hands its output to
// w, so the export holds one chunk in memory rather than the whole document.
const chromeChunk = 64 << 10

// WriteChrome exports the stream as Chrome trace_event JSON: context
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
func (s *stream) WriteChrome(w io.Writer, opt ChromeOptions) error {
	if opt.ClockHz == 0 {
		opt.ClockHz = defaultClockHz
	}
	if opt.ProcessName == "" {
		opt.ProcessName = "sensmart node"
	}
	c := &chromeWriter{w: w, opt: opt, buf: make([]byte, 0, chromeChunk+1024)}
	c.buf = append(c.buf, `{"traceEvents":[`...)
	c.meta("process_name", kernelTID, opt.ProcessName)
	c.meta("thread_name", kernelTID, "kernel")
	names := s.TaskNames()
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
		traps    = newTrapPairs()
		lastC    uint64
	)
	endRun := func(to uint64) {
		if curTask >= 0 {
			c.slice("running", curTask, curStart, to)
			c.end()
			curTask = -1
		}
	}
	for i := 0; i < s.n; i++ {
		e := s.rec(i)
		lastC = e.Cycle
		switch e.Kind {
		case KindSwitch:
			endRun(e.Cycle)
			curTask, curStart = e.Task, e.Cycle
		case KindTaskExit:
			if e.Task == curTask {
				endRun(e.Cycle)
			}
			c.instant("task-exit: ", s.detail(e.detail), e)
			c.args1("stack_peak", e.Arg)
		case KindTrapEnter:
			traps.enter(e.Task, e.Cycle, e.Arg)
		case KindTrapExit:
			if from, ok := traps.exit(e.Task); ok {
				c.slice(c.ktrapName(e.Arg), e.Task, from, e.Cycle)
				c.args1("charged_cycles", e.Arg2)
			}
		case KindIdle:
			c.slice("idle", -1, e.Cycle-e.Arg, e.Cycle)
			c.end()
		case KindBoot:
			c.instant("boot", "", e)
			c.args1("init_cycles", e.Arg)
		case KindProgLoad:
			c.instant("load: ", s.detail(e.detail), e)
			c.args2("flash_base", e.Arg, "words", e.Arg2)
		case KindTaskSpawn:
			c.instant("spawn: ", s.detail(e.detail), e)
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
			c.instant("halt: ", s.detail(e.detail), e)
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
	for _, enter := range traps.unpaired() {
		// An unpaired enter at stream end (budget expired mid-service).
		c.slice(c.ktrapName(enter.class), enter.task, enter.cycle, lastC)
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

// trapPairs pairs each trap exit with the latest open enter of its task:
// an open-addressed table keyed by task, probed linearly and at most half
// full. A task keeps its slot once it has one, so nothing is deleted, and
// a kernel stream's few tasks fit the first eight slots. Each enter and
// exit costs O(1) expected probes however many tasks a stream leaves
// open, where a scan of the open enters would make such a stream
// quadratic.
type trapPairs struct {
	slots []trapSlot // a power of two long
	shift uint       // 64 - log2(len(slots)): the hash's top bits index
	used  int        // slots holding a task
}

// trapSlot is one task's entry; while open it holds the task's pending
// enter, its stamp and service class.
type trapSlot struct {
	task         int32
	taken, open  bool
	cycle, class uint64
}

func newTrapPairs() *trapPairs {
	return &trapPairs{slots: make([]trapSlot, 8), shift: 64 - 3}
}

// find returns task's slot, or the free slot where it belongs.
func (p *trapPairs) find(task int32) *trapSlot {
	mask := uint64(len(p.slots) - 1)
	for i := p.home(task); ; i = (i + 1) & mask {
		if sl := &p.slots[i]; !sl.taken || sl.task == task {
			return sl
		}
	}
}

// home is the slot task's probe starts at. Fibonacci hashing: the top bits
// of the product mix every bit of the id, so strided ids spread as well as
// consecutive ones.
func (p *trapPairs) home(task int32) uint64 {
	return uint64(uint32(task)) * 0x9E3779B97F4A7C15 >> p.shift
}

// enter opens task's trap window at cycle, replacing any open one.
func (p *trapPairs) enter(task int32, cycle, class uint64) {
	sl := p.find(task)
	if !sl.taken {
		if 2*(p.used+1) > len(p.slots) {
			p.grow()
			sl = p.find(task)
		}
		sl.taken, sl.task = true, task
		p.used++
	}
	sl.open, sl.cycle, sl.class = true, cycle, class
}

// exit closes task's open trap window and returns its start.
func (p *trapPairs) exit(task int32) (from uint64, ok bool) {
	sl := p.find(task)
	if !sl.open {
		return 0, false
	}
	sl.open = false
	return sl.cycle, true
}

// grow doubles the table.
func (p *trapPairs) grow() {
	old := p.slots
	p.slots, p.shift = make([]trapSlot, 2*len(old)), p.shift-1
	for _, sl := range old {
		if sl.taken {
			*p.find(sl.task) = sl
		}
	}
}

// unpaired returns the windows still open, in task order.
func (p *trapPairs) unpaired() []trapSlot {
	var open []trapSlot
	for _, sl := range p.slots {
		if sl.open {
			open = append(open, sl)
		}
	}
	sort.Slice(open, func(i, j int) bool { return open[i].task < open[j].task })
	return open
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
	durs  [32]durText
}

// durText is a memoized dur rendering: the value's bits and its text.
type durText struct {
	bits uint64
	n    uint8
	text [23]byte
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
	ts := c.us(from)
	c.begin(name, "", "X", ts)
	c.buf = append(c.buf, `,"dur":`...)
	c.dur(c.us(to) - ts)
	c.tid(chromeTID(task))
}

// dur appends a slice's duration through a direct-mapped memo of
// renderings keyed by the value's bits. A kernel stream's trap windows
// span a few distinct cycle counts, so nearly every duration repeats one
// rendered before (37 distinct values among 56k windows in
// BenchmarkWriteChrome's stream), while timestamps never do.
func (c *chromeWriter) dur(f float64) {
	b := math.Float64bits(f)
	e := &c.durs[b*0x9E3779B97F4A7C15>>59]
	if e.n > 0 && e.bits == b {
		c.buf = append(c.buf, e.text[:e.n]...)
		return
	}
	at := len(c.buf)
	c.number(f)
	if n := len(c.buf) - at; n <= len(e.text) && c.err == nil {
		e.bits, e.n = b, uint8(n)
		copy(e.text[:], c.buf[at:])
	}
}

// instant begins a thread-scoped instant ("i") event at e's stamp.
func (c *chromeWriter) instant(name, detail string, e *record) {
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
	if b, ok := appendShortestFixed(c.buf, f); ok {
		c.buf = b
		return
	}
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

// fixedMaxShift bounds the binary scale s of the values the fixed-point
// path renders: at s <= 62 the remainder and both rounding gaps are whole
// in units of 2^-64.
const fixedMaxShift = 62

// pow10 holds 10^j for the digit chunks of appendShortestFixed.
var pow10 = [...]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18}

// appendShortestFixed appends f exactly as strconv.AppendFloat(dst, f, 'f',
// -1, 64) does — the shortest decimal that parses back to f, and of those
// the nearest to f, ties to an even last digit — for +0 and the normal
// positive values in [2^-10, 2^53). It reports false, appending nothing,
// for every other value.
//
// Such an f is m·2^-s with a 53-bit mantissa m and 0 <= s <= 62. Below
// 2^53 every integer is a float64, so the only integer that rounds to f is
// f itself: the integer part is exact, and the fraction digits come from a
// fixed-point remainder (Steele & White's free-format printing). The
// remainder and the gaps from f to its rounding bounds — half an ulp
// each, a quarter below a power-of-two mantissa — are 64-bit fractions,
// and each step multiplies all three by 10^j to produce j more digits. A
// step stops the output if its digit string, or that string with its last
// digit raised by one, lies within the bounds, which are inclusive when m
// is even, as round-half-even parsing makes them. It raises the digit if
// only the raised candidate is in bounds, or both are and the raised one is
// nearer f, or as near with an odd digit. A raised digit never carries: raising a 9 would give a shorter
// candidate, which the previous step would already have accepted. In this
// range the inclusive bounds and the quarter gap never decide an output: a
// bound (2m±1)·2^-(s+1) has s+1 fraction digits, more than the output
// ever needs, and a power of two is itself a decimal of at most ten
// digits. They keep the rule exact all the same.
//
// Once some string of k digits is in bounds, so is one of every longer
// length, so one chunk can test all of its digits at once: the first step
// takes a chunk a little shorter than the bounds' width in digits, and
// single digits follow (from the chunk's start if it already fits).
func appendShortestFixed(dst []byte, f float64) ([]byte, bool) {
	b := math.Float64bits(f)
	if b == 0 {
		return append(dst, '0'), true
	}
	// The biased exponent keeps the sign bit, so negative values fall
	// outside the range like sub-normals and large exponents do.
	exp := int(b >> 52)
	s := 1075 - exp
	if exp == 0 || s < 0 || s > fixedMaxShift {
		return dst, false
	}
	m := b&(1<<52-1) | 1<<52
	dst = appendUint53(dst, m>>s)
	if m&(1<<s-1) == 0 {
		return dst, true
	}
	dst = append(dst, '.')
	r := m << (64 - s)          // the fraction
	up := uint64(1) << (63 - s) // half an ulp
	low := up
	if m == 1<<52 {
		low >>= 1 // the lower neighbour is half an ulp nearer
	}
	// A candidate is in bounds if its distance from f is below the gap,
	// or equal to it when m is even: gap - distance - odd does not borrow.
	odd := m & 1
	// 10^(j+1) <= 2^(s-1): after j digits the bounds span at most a
	// twentieth of the last place, so only the rare short decimal fits
	// and the first chunk seldom has to be redone.
	j := max((s-1)*78913>>18-1, 1) // floor(log10(2^(s-1))) - 1
	for {
		d, rj := bits.Mul64(r, pow10[j])
		uh, uj := bits.Mul64(up, pow10[j])
		lh, lj := bits.Mul64(low, pow10[j])
		// The raised candidate is 2^64 - rj away: rh:rl as 128 bits.
		rl, borrow := bits.Sub64(0, rj, 0)
		rh := 1 - borrow
		_, lowOut := bits.Sub64(lj, rj, odd)
		_, lowOut = bits.Sub64(lh, 0, lowOut)
		_, upOut := bits.Sub64(uj, rl, odd)
		_, upOut = bits.Sub64(uh, rh, upOut)
		if lowOut&upOut != 0 {
			dst = appendFraction(dst, r, j)
			r, up, low, j = rj, uj, lj, 1
			continue
		}
		if j > 1 {
			j = 1
			continue
		}
		if upOut == 0 && (lowOut != 0 || rh == 0 && (rl < rj || rl == rj && d&1 == 1)) {
			d++
		}
		return append(dst, byte('0'+d)), true
	}
}

// appendUint53 appends u < 2^53 in decimal, as strconv.AppendUint does,
// writing the digits in place four at a time.
func appendUint53(dst []byte, u uint64) []byte {
	// u|1 has u's digit count and gives 0 one digit.
	t := bits.Len64(u|1) * 1233 >> 12 // floor(log10(u|1)) or one more
	n := t + 1
	if u|1 < pow10[t] {
		n = t
	}
	at := len(dst)
	dst = slices.Grow(dst, n)[:at+n]
	i := at + n
	for ; u >= 10000; i -= 4 {
		q := u / 10000
		lo := uint32(u - 10000*q)
		hi, lo := 2*(lo/100), 2*(lo%100)
		dst[i-4], dst[i-3], dst[i-2], dst[i-1] = digitPairs[hi], digitPairs[hi+1], digitPairs[lo], digitPairs[lo+1]
		u = q
	}
	if u >= 100 {
		p := 2 * (u % 100)
		dst[i-2], dst[i-1] = digitPairs[p], digitPairs[p+1]
		u /= 100
	}
	if u >= 10 {
		dst[at], dst[at+1] = digitPairs[2*u], digitPairs[2*u+1]
	} else {
		dst[at] = byte('0' + u)
	}
	return dst
}

// appendFraction appends the first n decimal digits of the 64-bit fraction
// r, two at a time.
func appendFraction(dst []byte, r uint64, n int) []byte {
	var d uint64
	for ; n >= 2; n -= 2 {
		d, r = bits.Mul64(r, 100)
		dst = append(dst, digitPairs[2*d], digitPairs[2*d+1])
	}
	if n == 1 {
		d, _ = bits.Mul64(r, 10)
		dst = append(dst, byte('0'+d))
	}
	return dst
}

// digitPairs spells 00 through 99.
var digitPairs = func() (t [200]byte) {
	for i := range 100 {
		t[2*i], t[2*i+1] = byte('0'+i/10), byte('0'+i%10)
	}
	return t
}()

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
