package mcu

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// stateWorkSrc exercises every peripheral a snapshot must carry: ADC
// conversions off the deterministic LFSR noise source, UART transmits, and
// radio frames, all inside one loop.
const stateWorkSrc = `
main:
    ldi r16, lo8(RAMEND)
    out SPL, r16
    ldi r16, hi8(RAMEND)
    out SPH, r16
    ldi r20, 12
loop:
    mov r16, r20
    andi r16, 7
    out ADMUX, r16
    ldi r16, 0xC0     ; ADEN|ADSC
    out ADCSRA, r16
adcw:
    in r17, ADCSRA
    sbrc r17, 6
    rjmp adcw
    in r24, ADCL
    rcall putc
    rcall txb
    dec r20
    brne loop
    break
putc:
    in r17, UCSR0A
    sbrs r17, 5
    rjmp putc
    out UDR0, r24
    ret
txb:
    in r17, RSR
    sbrs r17, 0
    rjmp txb
    out RDR, r24
    ret
`

// finishWork drains the workload to BREAK plus the last in-flight device
// bytes, returning the machine's observable end state.
func finishWork(t *testing.T, m *Machine) (uart []byte, radio []RadioFrame, cycles, insts uint64) {
	t.Helper()
	runUntilBreak(t, m, 10_000_000)
	m.fault = nil
	m.AddCycles(UARTByteCycles + RadioByteCycles)
	m.FlushDevices()
	return m.UARTOutput(), m.RadioOutput(), m.cycle, m.insts
}

// TestRestoreResumeIdentity pins machine-level resume identity: a machine
// restored from a mid-run snapshot must finish with the same cycle count,
// instruction count, device output, and CPU state as the uninterrupted run —
// including the ADC noise stream, whose LFSR is part of the snapshot.
func TestRestoreResumeIdentity(t *testing.T) {
	ref := load(t, stateWorkSrc)
	wantUART, wantRadio, wantCycles, wantInsts := finishWork(t, ref)
	if len(wantUART) != 12 || len(wantRadio) != 12 {
		t.Fatalf("workload emitted %d uart / %d radio bytes, want 12/12", len(wantUART), len(wantRadio))
	}

	src := load(t, stateWorkSrc)
	if err := src.Run(wantCycles / 2); err != nil {
		t.Fatalf("mid-run stop: %v", err)
	}
	st, err := src.CaptureState()
	if err != nil {
		t.Fatal(err)
	}

	dst := load(t, stateWorkSrc)
	if err := dst.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	gotUART, gotRadio, gotCycles, gotInsts := finishWork(t, dst)
	if !bytes.Equal(gotUART, wantUART) {
		t.Errorf("uart = %q, want %q", gotUART, wantUART)
	}
	if len(gotRadio) != len(wantRadio) {
		t.Fatalf("radio frames = %d, want %d", len(gotRadio), len(wantRadio))
	}
	for i := range gotRadio {
		if gotRadio[i] != wantRadio[i] {
			t.Errorf("radio[%d] = %+v, want %+v", i, gotRadio[i], wantRadio[i])
		}
	}
	if gotCycles != wantCycles || gotInsts != wantInsts {
		t.Errorf("cycles/insts = %d/%d, want %d/%d", gotCycles, gotInsts, wantCycles, wantInsts)
	}
	if dst.pc != ref.pc || dst.data != ref.data {
		t.Error("restored machine's CPU state diverged from the uninterrupted run")
	}

	// The source machine must be unperturbed by the capture: it finishes
	// identically too.
	srcUART, _, srcCycles, _ := finishWork(t, src)
	if !bytes.Equal(srcUART, wantUART) || srcCycles != wantCycles {
		t.Error("capturing state perturbed the running machine")
	}
}

// TestRestoreDoesNotAliasState pins the aliasing contract from both sides:
// after restore, writes through the snapshot must not reach the machine, and
// the machine's continued execution must not mutate the snapshot.
func TestRestoreDoesNotAliasState(t *testing.T) {
	src := load(t, stateWorkSrc)
	if err := src.Run(20_000); err != nil {
		t.Fatal(err)
	}
	st, err := src.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Dev.UARTOut) == 0 || len(st.Dev.RadioOut) == 0 {
		t.Fatalf("workload state at 20k cycles has no device output (uart=%d radio=%d)",
			len(st.Dev.UARTOut), len(st.Dev.RadioOut))
	}

	dst := load(t, stateWorkSrc)
	if err := dst.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	// Scribble through the snapshot; the machine must not see it.
	uart0, radio0 := st.Dev.UARTOut[0], st.Dev.RadioOut[0]
	st.Dev.UARTOut[0] ^= 0xFF
	st.Dev.RadioOut[0].Byte ^= 0xFF
	st.Data[SRAMBase] ^= 0xFF
	if dst.dev.uartOut[0] != uart0 {
		t.Error("restored UART buffer aliases the snapshot slice")
	}
	if dst.dev.radioOut[0] != radio0 {
		t.Error("restored radio buffer aliases the snapshot slice")
	}
	if dst.data[SRAMBase] == st.Data[SRAMBase] {
		t.Error("restored SRAM aliases the snapshot slice")
	}
	st.Dev.UARTOut[0], st.Dev.RadioOut[0] = uart0, radio0
	st.Data[SRAMBase] ^= 0xFF

	// Run the machine on; the snapshot must stay frozen.
	wantUART := append([]byte(nil), st.Dev.UARTOut...)
	finishWork(t, dst)
	if !bytes.Equal(st.Dev.UARTOut, wantUART) {
		t.Error("machine execution mutated the snapshot's UART buffer")
	}
}

// TestCaptureRefusesOpaqueHooks: a custom ADC source closure and an armed
// fault injector are unserializable pending effects — capture must fail with
// the typed errors, not silently drop them.
func TestCaptureRefusesOpaqueHooks(t *testing.T) {
	m := load(t, stateWorkSrc)
	m.SetADCSource(func(uint8) uint16 { return 7 })
	if _, err := m.CaptureState(); !errors.Is(err, ErrCustomADCSource) {
		t.Errorf("capture with ADC source: %v, want ErrCustomADCSource", err)
	}
	m.SetADCSource(nil)
	if _, err := m.CaptureState(); err != nil {
		t.Fatalf("capture after clearing source: %v", err)
	}

	m.Arm(HookInject, 1_000, 0, func(uint64) {})
	m.Arm(HookInject, 2_000, 0, func(uint64) {})
	if _, err := m.CaptureState(); !errors.Is(err, ErrArmedInjector) {
		t.Errorf("capture with armed injector: %v, want ErrArmedInjector", err)
	}
	if err := m.Run(1_500); err != nil {
		t.Fatal(err)
	}
	if _, err := m.CaptureState(); !errors.Is(err, ErrArmedInjector) {
		t.Errorf("capture with one of two injections fired: %v, want ErrArmedInjector", err)
	}
	if err := m.Run(2_500); err != nil {
		t.Fatal(err)
	}
	if _, err := m.CaptureState(); err != nil {
		t.Errorf("capture after every injection fired: %v", err)
	}
}

// TestRestoreKeepsSampleSchedule: RestoreState moves the target's sample
// entry to the snapshot's next mark, so the restored run samples exactly the
// boundaries the source run had left.
func TestRestoreKeepsSampleSchedule(t *testing.T) {
	var srcAt, dstAt []uint64
	src := load(t, stateWorkSrc)
	src.Arm(HookSample, 1000, 1000, func(at uint64) { srcAt = append(srcAt, at) })
	if err := src.Run(3_500); err != nil {
		t.Fatal(err)
	}
	st, err := src.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	if st.SampleEvery != 1000 || st.SampleNext != 4000 {
		t.Fatalf("captured sample schedule %d/%d, want 1000/4000", st.SampleEvery, st.SampleNext)
	}
	dst := load(t, stateWorkSrc)
	dst.Arm(HookSample, 1000, 1000, func(at uint64) { dstAt = append(dstAt, at) })
	if err := dst.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	srcAt = nil
	for _, m := range []*Machine{src, dst} {
		if err := m.Run(7_500); err != nil {
			t.Fatal(err)
		}
	}
	if fmt.Sprint(dstAt) != fmt.Sprint(srcAt) || len(dstAt) == 0 || dstAt[0] != 4000 {
		t.Errorf("restored run sampled %v, source run %v; want both from 4000", dstAt, srcAt)
	}
}

// TestRestoreRejectsImageMismatch: restoring onto a machine whose flash
// differs from the snapshot's image hash must fail — the snapshot carries no
// flash, so the target's image is load-bearing.
func TestRestoreRejectsImageMismatch(t *testing.T) {
	src := load(t, stateWorkSrc)
	if err := src.Run(10_000); err != nil {
		t.Fatal(err)
	}
	st, err := src.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	other := load(t, uartEmitSrc)
	if err := other.RestoreState(st); !errors.Is(err, ErrImageMismatch) {
		t.Errorf("restore onto different image: %v, want ErrImageMismatch", err)
	}
}

// TestRestoreRejectsBadGeometry: a snapshot with a truncated data segment or
// a mismatched sampler interval must be refused.
func TestRestoreRejectsBadGeometry(t *testing.T) {
	src := load(t, stateWorkSrc)
	st, err := src.CaptureState()
	if err != nil {
		t.Fatal(err)
	}

	trunc := *st
	trunc.Data = st.Data[:100]
	if err := load(t, stateWorkSrc).RestoreState(&trunc); !errors.Is(err, ErrSnapshotDataSize) {
		t.Errorf("restore of truncated data segment: %v, want ErrSnapshotDataSize", err)
	}

	sampled := load(t, stateWorkSrc)
	sampled.Arm(HookSample, 4096, 4096, func(uint64) {})
	if err := sampled.RestoreState(st); !errors.Is(err, ErrSamplerMismatch) {
		t.Errorf("restore with different sampler interval: %v, want ErrSamplerMismatch", err)
	}
}

// TestFlashDigestFollowsLoadFlash: the cached flash digest must not
// outlive a flash write. A snapshot captured before a one-word LoadFlash
// no longer restores, and the machine's next capture carries the digest of
// its new contents.
func TestFlashDigestFollowsLoadFlash(t *testing.T) {
	m := load(t, stateWorkSrc)
	st, err := m.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RestoreState(st); err != nil {
		t.Fatalf("restore onto the same image: %v", err)
	}
	if err := m.LoadFlash(3, []uint16{m.FlashWord(3) ^ 1}); err != nil {
		t.Fatal(err)
	}
	if err := m.RestoreState(st); !errors.Is(err, ErrImageMismatch) {
		t.Errorf("restore after a one-word LoadFlash: %v, want ErrImageMismatch", err)
	}
	st2, err := m.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	if st2.FlashHash != m.hashFlash() || st2.FlashHash == st.FlashHash {
		t.Error("capture after LoadFlash carries a stale flash digest")
	}
}

// TestAdoptImageInheritsFlashDigest: an adopter takes its parent's digest
// with the image, hashing the parent once if it has no digest yet, so it
// restores the parent's snapshots without hashing flash itself. After its
// own LoadFlash it rejects them, while the parent still accepts them.
func TestAdoptImageInheritsFlashDigest(t *testing.T) {
	parent := load(t, stateWorkSrc)
	if parent.flashSumOK {
		t.Fatal("freshly loaded machine has a cached digest")
	}
	child := New()
	child.AdoptImage(parent)
	if !parent.flashSumOK || !child.flashSumOK || child.flashSum != parent.hashFlash() {
		t.Fatal("AdoptImage did not hand over the parent's digest")
	}
	st, err := parent.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	// Restore must use the inherited digest: a wrong one that it rejects
	// shows no hash was recomputed.
	saved := child.flashSum
	child.flashSum[0] ^= 0xFF
	if err := child.RestoreState(st); !errors.Is(err, ErrImageMismatch) {
		t.Fatalf("restore ignored the cached digest: %v", err)
	}
	child.flashSum = saved
	if err := child.RestoreState(st); err != nil {
		t.Fatalf("adopter restoring its parent's snapshot: %v", err)
	}
	if err := child.LoadFlash(0, []uint16{child.FlashWord(0) ^ 1}); err != nil {
		t.Fatal(err)
	}
	if err := child.RestoreState(st); !errors.Is(err, ErrImageMismatch) {
		t.Errorf("adopter restore after its own LoadFlash: %v, want ErrImageMismatch", err)
	}
	if err := parent.RestoreState(st); err != nil {
		t.Errorf("parent restore after the adopter's LoadFlash: %v", err)
	}
}

// TestFlashDigestConcurrentAdopters: adopters of one parent and captures
// of the parent may run at once, while the first of them fills the
// parent's digest; every capture must carry the image's digest.
func TestFlashDigestConcurrentAdopters(t *testing.T) {
	parent := load(t, stateWorkSrc)
	want := parent.hashFlash()
	var wg sync.WaitGroup
	sums := make([][32]byte, 8)
	errs := make([]error, len(sums))
	for i := range sums {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m := parent
			if i%2 == 1 {
				m = New()
				m.AdoptImage(parent)
			}
			st, err := m.CaptureState()
			if err == nil {
				sums[i] = st.FlashHash
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, sum := range sums {
		if errs[i] != nil || sum != want {
			t.Errorf("goroutine %d: capture err %v, digest matches image %v", i, errs[i], sum == want)
		}
	}
}

// TestAdoptImageCopyOnWrite: after AdoptImage the two machines share flash
// and micro-op arrays; a SetTrapHandler or LoadFlash on either side must
// split the sharing without corrupting the other machine.
func TestAdoptImageCopyOnWrite(t *testing.T) {
	parent := load(t, stateWorkSrc)
	wantUART, _, wantCycles, _ := finishWork(t, parent)

	child := New()
	child.AdoptImage(parent)
	if child.flash != parent.flash || len(child.uops) == 0 || &child.uops[0] != &parent.uops[0] {
		t.Fatal("AdoptImage did not share the arrays")
	}
	// A flash write on the child must split the image and leave the parent's
	// contents untouched.
	word0 := parent.flash[0]
	if err := child.LoadFlash(0, []uint16{0x1234}); err != nil {
		t.Fatal(err)
	}
	if child.flash == parent.flash {
		t.Error("LoadFlash on an adopted image did not copy-on-write")
	}
	if parent.flash[0] != word0 {
		t.Error("LoadFlash on the child leaked into the parent's flash")
	}

	// A fresh child that keeps the shared image must run identically.
	sib := load(t, stateWorkSrc)
	sib.AdoptImage(parent)
	gotUART, _, gotCycles, _ := finishWork(t, sib)
	if !bytes.Equal(gotUART, wantUART) || gotCycles != wantCycles {
		t.Errorf("adopted child run = %q/%d cycles, want %q/%d", gotUART, gotCycles, wantUART, wantCycles)
	}
}

// TestCheckpointHookFiresOnceAtBoundary: each checkpoint entry fires exactly
// once, at a run-loop boundary at or after its cycle. Independently armed
// entries all fire; a sample due at the same boundary fires first even when
// armed last; an entry armed from a callback waits for a later pass; and
// none of it changes the machine's trajectory.
func TestCheckpointHookFiresOnceAtBoundary(t *testing.T) {
	ref := load(t, stateWorkSrc)
	wantUART, _, wantCycles, wantInsts := finishWork(t, ref)

	m := load(t, stateWorkSrc)
	half := wantCycles / 2
	var fired []string
	var cycles []uint64
	note := func(name string) func(uint64) {
		return func(at uint64) {
			fired = append(fired, fmt.Sprintf("%s@%d", name, at))
			cycles = append(cycles, m.cycle)
		}
	}
	m.Arm(HookCheckpoint, half, 0, func(at uint64) {
		note("first")(at)
		m.Arm(HookCheckpoint, at, 0, note("rearmed"))
	})
	m.Arm(HookCheckpoint, half, 0, note("second"))
	m.Arm(HookSample, half, wantCycles, note("sample"))
	gotUART, _, gotCycles, gotInsts := finishWork(t, m)

	want := fmt.Sprintf("sample@%[1]d first@%[1]d second@%[1]d rearmed@%[1]d", half)
	if got := strings.Join(fired, " "); got != want {
		t.Fatalf("fired %s, want %s", got, want)
	}
	if cycles[0] < half || cycles[0] >= wantCycles || cycles[1] != cycles[0] || cycles[2] != cycles[0] {
		t.Errorf("first boundary entries fired at cycles %v, want one boundary within [%d, %d)", cycles[:3], half, wantCycles)
	}
	if cycles[3] < cycles[0] {
		t.Errorf("rearmed entry fired at cycle %d, before its arming boundary %d", cycles[3], cycles[0])
	}
	if !bytes.Equal(gotUART, wantUART) || gotCycles != wantCycles || gotInsts != wantInsts {
		t.Error("arming checkpoints perturbed the run")
	}
}
