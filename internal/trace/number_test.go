package trace

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// appendRefNumber appends f as encoding/json renders it, through strconv
// alone: the shortest 'f' form for 0 and magnitudes in [1e-6, 1e21), the
// shortest 'e' form elsewhere with a one-digit negative exponent written as
// e-7.
func appendRefNumber(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b := strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b = append(b[:n-2], b[n-1])
	}
	return b
}

// numberChecker compares chromeWriter.number with appendRefNumber, reusing
// its buffers so a sweep of millions of values stays fast.
type numberChecker struct {
	c    chromeWriter
	want []byte
}

func newNumberChecker() *numberChecker {
	return &numberChecker{c: chromeWriter{opt: ChromeOptions{ClockHz: defaultClockHz}}}
}

// check reports how number renders f wrongly, or "" if it renders f as
// the reference does; a non-finite f must fail the export and write
// nothing.
func (k *numberChecker) check(f float64) string {
	k.c.buf, k.c.err = k.c.buf[:0], nil
	k.c.number(f)
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if k.c.err == nil || len(k.c.buf) != 0 {
			return fmt.Sprintf("number(%v) = %q, err %v; want no bytes and an error", f, k.c.buf, k.c.err)
		}
		return ""
	}
	if k.want = appendRefNumber(k.want[:0], f); k.c.err != nil || !bytes.Equal(k.c.buf, k.want) {
		return fmt.Sprintf("number(%v) [bits %#016x] = %q, err %v; want %q",
			f, math.Float64bits(f), k.c.buf, k.c.err, k.want)
	}
	return ""
}

// TestChromeNumberEveryCycle renders the ts of every cycle in [0, 2^22) at
// the MICA2 clock, and the one-cycle dur that starts there.
func TestChromeNumberEveryCycle(t *testing.T) {
	k := newNumberChecker()
	for cycle := uint64(0); cycle < 1<<22; cycle++ {
		ts := k.c.us(cycle)
		if msg := k.check(ts) + k.check(k.c.us(cycle+1)-ts); msg != "" {
			t.Fatalf("cycle %d: %s", cycle, msg)
		}
	}
}

// TestChromeNumberRandomSlices renders the ts and dur of seeded random
// slices whose ends lie below 2^40 cycles and whose lengths spread over
// every scale up to that.
func TestChromeNumberRandomSlices(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	k := newNumberChecker()
	for _, hz := range []float64{defaultClockHz, 1e6, 32768, 16e6} {
		k.c.opt.ClockHz = hz
		for i := 0; i < 100_000; i++ {
			from := rng.Uint64() >> 24
			to := min(from+rng.Uint64()>>(24+rng.Intn(40)), 1<<40)
			ts := k.c.us(from)
			if msg := k.check(ts) + k.check(k.c.us(to)-ts); msg != "" {
				t.Fatalf("ClockHz %v, cycles [%d, %d): %s", hz, from, to, msg)
			}
		}
	}
}

// TestChromeNumberBitPatterns renders random float64 bit patterns under
// every exponent and sign, so the fixed-point path, the boundary of its
// range and the strconv fallback (sub-normals, 'e' values, -0, negative
// values, Inf and NaN) all run.
func TestChromeNumberBitPatterns(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	k := newNumberChecker()
	for exp := uint64(0); exp < 1<<12; exp++ {
		for i := 0; i < 40; i++ {
			mant := rng.Uint64() >> 12
			switch i {
			case 0, 1, 2:
				mant = uint64(i) // a power of two and its upper neighbours
			case 3:
				mant = 1<<52 - 1
			}
			if msg := k.check(math.Float64frombits(exp<<52 | mant)); msg != "" {
				t.Fatal(msg)
			}
		}
	}
}

// TestChromeNumberEdges renders named values at the edges of json's two
// formats, of the fixed-point path's range and of its digit loop.
func TestChromeNumberEdges(t *testing.T) {
	for _, tc := range []struct {
		name string
		f    float64
	}{
		{"zero", 0},
		{"negative zero", math.Copysign(0, -1)},
		{"below 1e-6", math.Nextafter(1e-6, 0)},
		{"1e-6", 1e-6},
		{"below 2^-10", math.Nextafter(0x1p-10, 0)},
		{"2^-10", 0x1p-10},
		{"above 2^-10", math.Nextafter(0x1p-10, 1)},
		{"one", 1},
		{"below one", math.Nextafter(1, 0)},
		{"above one", math.Nextafter(1, 2)},
		{"2^52", 0x1p52},
		{"below 2^53", 0x1p53 - 1},
		{"2^53", 0x1p53},
		{"above 2^53", math.Nextafter(0x1p53, math.Inf(1))},
		{"below 1e21", math.Nextafter(1e21, 0)},
		{"1e21", 1e21},
		{"power of two half", 0.5},
		{"power of two quarter", 0.25},
		{"power of two 2^20", 0x1p20},
		{"below power of two 2^20", math.Nextafter(0x1p20, 0)},
		{"tie to even digit, odd mantissa", 1125899906842624.25},
		{"tie to even digit, raised", 1125899906842624.75},
		{"tie at a half", 2251799813685248.5},
		{"even mantissa on an inclusive bound", 0x1p54 + 4},
		{"odd mantissa on an exclusive bound", 0x1p54 + 12},
		{"even mantissa at a power-of-two bound", 0x1p60},
		{"nines below a thousand", 999.9999999999999},
		{"below a thousand", math.Nextafter(1000, 0)},
		{"nines below one", 0.9999999999999999},
		{"nines below ten", 9.999999999999998},
		{"nines below 1e8", 99999999.99999999},
		{"short decimal", 0.1},
		{"short decimal sum", 0.1 + 0.2},
		{"one cycle", 1 / float64(defaultClockHz) * 1e6},
		{"max ts of 2^40 cycles", float64(1<<40) / defaultClockHz * 1e6},
		{"largest normal", math.MaxFloat64},
		{"smallest normal", 0x1p-1022},
		{"smallest sub-normal", 5e-324},
		{"negative", -135.63368055555554},
		{"infinity", math.Inf(1)},
		{"not a number", math.NaN()},
	} {
		if msg := newNumberChecker().check(tc.f); msg != "" {
			t.Errorf("%s: %s", tc.name, msg)
		}
	}
}

// TestChromeNumberAllocates checks that the number path appends into the
// writer's buffer without allocating.
func TestChromeNumberAllocates(t *testing.T) {
	c := &chromeWriter{opt: ChromeOptions{ClockHz: defaultClockHz}, buf: make([]byte, 0, 64)}
	allocs := testing.AllocsPerRun(100, func() {
		c.buf = c.buf[:0]
		c.number(123456.78901234567)
		c.number(0.13563368055555555)
	})
	if allocs != 0 {
		t.Errorf("number allocates %v times per two calls", allocs)
	}
}

// FuzzChromeNumber checks chromeWriter.number against the strconv
// rendering for arbitrary float64 values.
func FuzzChromeNumber(f *testing.F) {
	for _, v := range []float64{0, 1e-6, 0.13563368055555555, 999.9999999999999, 1125899906842624.25, 0x1p53, 1e21, -1, 5e-324} {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v float64) {
		if msg := newNumberChecker().check(v); msg != "" {
			t.Fatal(msg)
		}
	})
}
