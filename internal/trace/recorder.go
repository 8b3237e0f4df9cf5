package trace

import "strconv"

// chunkSize is the number of records in one storage chunk (160 KiB). Every
// chunk of a stream but the last is full, and a full chunk is never written
// again, so captured states share full chunks instead of copying them.
const chunkSize = 4096

// record is the stored form of an Event: 40 bytes with no pointers, so the
// garbage collector never scans a chunk. detail indexes the stream's
// detail table; 0 is the empty string.
//
// The record is not narrowed to 32 bytes: that would need Arg2 and Task in
// smaller fields plus a second path for the values that do not fit.
type record struct {
	Cycle, Arg, Arg2 uint64
	PC               uint32
	Task             int32
	detail           uint32
	Kind             Kind
}

// stream is the chunked event store a Recorder appends to and a
// RecorderState holds. Its methods read the stream in emission order and
// are the same on both.
type stream struct {
	chunks  [][]record // chunkSize records each, the last one partial
	n       int        // records in all chunks
	details []string   // interned detail strings; record.detail i is details[i-1]
}

// Len returns the number of retained events.
func (s *stream) Len() int { return s.n }

// At returns the i-th retained event, 0 <= i < Len.
func (s *stream) At(i int) Event { return s.event(s.rec(i)) }

func (s *stream) rec(i int) *record { return &s.chunks[i/chunkSize][i%chunkSize] }

func (s *stream) event(r *record) Event {
	return Event{Cycle: r.Cycle, Kind: r.Kind, Task: r.Task, Arg: r.Arg, Arg2: r.Arg2, PC: r.PC, Detail: s.detail(r.detail)}
}

func (s *stream) detail(i uint32) string {
	if i == 0 {
		return ""
	}
	return s.details[i-1]
}

// Events returns a fresh copy of the stream in emission order; nil when it
// is empty. Use At to read a few events without copying the whole stream.
func (s *stream) Events() []Event {
	if s.n == 0 {
		return nil
	}
	evs := make([]Event, s.n)
	for i := range evs {
		evs[i] = s.At(i)
	}
	return evs
}

// DetailBytes returns the summed length of the retained events' details,
// so a caller can size a buffer for AppendEvents.
func (s *stream) DetailBytes() int {
	n := 0
	for _, c := range s.chunks {
		for i := range c {
			if d := c[i].detail; d != 0 {
				n += len(s.details[d-1])
			}
		}
	}
	return n
}

// AppendEvents appends every retained event to b in emission order, in the
// form put renders, and returns the extended slice. It reads the stored
// records in place, so a serializer pays no per-event call to At.
func (s *stream) AppendEvents(b []byte, put func(b []byte, ev Event) []byte) []byte {
	for _, c := range s.chunks {
		for i := range c {
			b = put(b, s.event(&c[i]))
		}
	}
	return b
}

// TaskNames derives the id-to-name table from the spawn events in the
// stream — the exporter and Logf adapter use it so no side-channel name
// registry is needed.
func (s *stream) TaskNames() map[int32]string {
	names := make(map[int32]string)
	for i := 0; i < s.n; i++ {
		if r := s.rec(i); r.Kind == KindTaskSpawn && r.Task >= 0 {
			names[r.Task] = s.detail(r.detail)
		}
	}
	return names
}

// encodeLineFields presizes the Encode line fields other than the cycle
// stamp and the detail: kernel streams are mostly trap enter/exit lines
// whose small integers average about 13 bytes with separators and quotes.
const encodeLineFields = 16

// Encode renders the stream as a canonical text dump, one event per line —
// the byte-identical form the determinism tests compare. Each line is
// "cycle kind task arg arg2 pc detail" with integers in decimal and the
// detail Go-quoted (the rendering of fmt's "%d %d %d %d %d %d %q\n").
func (s *stream) Encode() []byte {
	// Size every line by the last (largest) cycle stamp, so one allocation
	// usually holds the whole dump.
	size := 0
	if s.n > 0 {
		var digits [20]byte
		size = s.n * (encodeLineFields + len(strconv.AppendUint(digits[:0], s.rec(s.n-1).Cycle, 10)))
	}
	for i := 0; i < s.n; i++ {
		size += len(s.detail(s.rec(i).detail))
	}
	b := make([]byte, 0, size)
	for i := 0; i < s.n; i++ {
		r := s.rec(i)
		b = strconv.AppendUint(b, r.Cycle, 10)
		b = append(b, ' ')
		b = strconv.AppendUint(b, uint64(r.Kind), 10)
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(r.Task), 10)
		b = append(b, ' ')
		b = strconv.AppendUint(b, r.Arg, 10)
		b = append(b, ' ')
		b = strconv.AppendUint(b, r.Arg2, 10)
		b = append(b, ' ')
		b = strconv.AppendUint(b, uint64(r.PC), 10)
		b = append(b, ' ')
		if r.detail == 0 {
			b = append(b, "\"\"\n"...)
		} else {
			b = strconv.AppendQuote(b, s.details[r.detail-1])
			b = append(b, '\n')
		}
	}
	return b
}

// share returns a stream with s's contents that shares its full chunks and
// owns copies of the chunk list, the partial last chunk and the detail
// table, so neither side's later appends reach the other. writable gives
// the copied last chunk room to fill up to chunkSize.
func (s *stream) share(writable bool) stream {
	if s.n == 0 {
		return stream{}
	}
	out := stream{
		chunks:  append([][]record(nil), s.chunks...),
		n:       s.n,
		details: append([]string(nil), s.details...),
	}
	if last := &out.chunks[len(out.chunks)-1]; len(*last) < chunkSize {
		size := 0
		if writable {
			size = chunkSize
		}
		*last = append(make([]record, 0, size), *last...)
	}
	return out
}

// Recorder collects events in emission order. The zero value records with
// no bound; New returns one ready to use. A nil *Recorder is the disabled
// state: emitters must nil-check before calling Emit (the kernel and MCU
// do), which keeps the hot path to one pointer comparison.
//
// Len, At, Events, AppendEvents, DetailBytes, Encode, WriteChrome and
// TaskNames read the recorded stream.
type Recorder struct {
	// Limit caps retained events (0 = unbounded). Once full, further events
	// are counted in Dropped instead of retained, so a runaway trace
	// degrades to a truncated one instead of exhausting memory.
	Limit int

	stream
	index   map[string]uint32 // details lookup, rebuilt on first use after a restore
	dropped uint64
}

// New returns an empty unbounded recorder.
func New() *Recorder { return &Recorder{} }

// NewLimited returns a recorder retaining at most limit events.
func NewLimited(limit int) *Recorder { return &Recorder{Limit: limit} }

// Emit appends one event.
func (r *Recorder) Emit(ev Event) {
	if r.Limit > 0 && r.n >= r.Limit {
		r.dropped++
		return
	}
	var detail uint32
	if ev.Detail != "" {
		detail = r.intern(ev.Detail)
	}
	if r.n%chunkSize == 0 {
		r.chunks = append(r.chunks, make([]record, 0, chunkSize))
	}
	last := &r.chunks[len(r.chunks)-1]
	*last = append(*last, record{Cycle: ev.Cycle, Arg: ev.Arg, Arg2: ev.Arg2, PC: ev.PC, Task: ev.Task, detail: detail, Kind: ev.Kind})
	r.n++
}

// intern returns the detail-table index of s, adding s on first sight.
func (r *Recorder) intern(s string) uint32 {
	if r.index == nil {
		r.index = make(map[string]uint32, len(r.details)+1)
		for i, d := range r.details {
			r.index[d] = uint32(i + 1)
		}
	}
	if i, ok := r.index[s]; ok {
		return i
	}
	r.details = append(r.details, s)
	i := uint32(len(r.details))
	r.index[s] = i
	return i
}

// Dropped returns how many events the Limit discarded.
func (r *Recorder) Dropped() uint64 { return r.dropped }

// Reset discards all recorded events (the Limit is kept). Chunks a captured
// state still shares are left to it, not reused.
func (r *Recorder) Reset() { r.stream, r.index, r.dropped = stream{}, nil, 0 }
