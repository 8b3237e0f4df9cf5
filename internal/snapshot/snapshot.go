// Package snapshot defines the versioned, integrity-hashed binary encoding
// of a complete simulated-node checkpoint: machine state (SRAM, registers,
// devices, pending interrupts, RNG streams), kernel state (task table,
// region geometry, cycle ledgers, fault log), and the attached observers'
// accumulated output (trace events, telemetry ring, profiler histograms).
//
// The program image is deliberately not part of a snapshot. Flash and the
// predecoded micro-op cache are immutable while running, so a snapshot
// carries only their SHA-256; a restore target deploys the same programs and
// the hash check proves the images match. In-process, mcu.Machine.AdoptImage
// lets a restored machine share the parent's arrays copy-on-write, so
// fanning N variants out of one warm checkpoint does not copy flash N times.
//
// Wire format:
//
//	offset  size  field
//	0       4     magic "SSNP"
//	4       4     schema version (little-endian u32)
//	8       8     payload length (little-endian u64)
//	16      32    SHA-256 of payload
//	48      n     payload (see codec.go)
//
// All integers are little-endian. Decoding is strict: a wrong magic, an
// unknown version, a truncated buffer, a hash mismatch, or malformed payload
// contents each fail with a distinct typed error, and decode never panics on
// adversarial input (FuzzSnapshotRoundTrip enforces this).
package snapshot

import (
	"crypto/sha256"
	"errors"
	"fmt"

	"repro/internal/energy"
	"repro/internal/kernel"
	"repro/internal/mcu"
	"repro/internal/profile"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// SchemaVersion is the wire-format version this package reads and writes.
// Version history:
//
//	1  initial format: machine + kernel + optional trace/telemetry/profile
//	2  adds the optional energy-meter ledger after the profile section, and
//	   energy gauges to every telemetry sample (see codec.go)
//
// Each version is read and written by exactly one release line; there is no
// cross-version migration (DESIGN.md documents the schema-evolution policy).
const SchemaVersion = 2

// magic identifies a snapshot blob.
const magic = "SSNP"

// headerSize is the fixed prefix before the payload.
const headerSize = 4 + 4 + 8 + 32

// Decode errors, distinguishable with errors.Is.
var (
	// ErrBadMagic: the blob does not start with the snapshot magic.
	ErrBadMagic = errors.New("snapshot: bad magic (not a snapshot file)")
	// ErrVersion: the blob's schema version is not supported.
	ErrVersion = errors.New("snapshot: unsupported schema version")
	// ErrTruncated: the blob ends before the declared payload does.
	ErrTruncated = errors.New("snapshot: truncated")
	// ErrCorrupt: the payload does not match its integrity hash.
	ErrCorrupt = errors.New("snapshot: integrity hash mismatch")
	// ErrMalformed: the payload hashes correctly but its contents do not
	// decode (impossible lengths, bad enum values, trailing garbage).
	ErrMalformed = errors.New("snapshot: malformed payload")
)

// VersionError reports the unsupported version a blob declared. It unwraps
// to ErrVersion.
type VersionError struct {
	Got uint32
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("snapshot: unsupported schema version %d (supported: %d)", e.Got, SchemaVersion)
}

func (e *VersionError) Unwrap() error { return ErrVersion }

// State is one decoded checkpoint. Machine and Kernel are always present;
// the observer states are present exactly when the source system had that
// observer attached, and a restore target's attachments must match.
type State struct {
	Machine   *mcu.MachineState
	Kernel    *kernel.KernelState
	Trace     *trace.RecorderState
	Telemetry *telemetry.SamplerState
	Profile   *profile.ProfilerState
	Energy    *energy.MeterState
}

// Encode serializes st into a self-validating blob.
func Encode(st *State) ([]byte, error) {
	if st == nil || st.Machine == nil || st.Kernel == nil {
		return nil, fmt.Errorf("snapshot: encode: machine and kernel state are required")
	}
	// The header is reserved up front and filled in place once the payload
	// is known, so the blob is never copied behind a fresh header.
	e := enc{b: make([]byte, headerSize)}
	e.machineState(st.Machine)
	e.kernelState(st.Kernel)
	e.optional(st.Trace != nil)
	if st.Trace != nil {
		e.recorderState(st.Trace)
	}
	e.optional(st.Telemetry != nil)
	if st.Telemetry != nil {
		e.samplerState(st.Telemetry)
	}
	e.optional(st.Profile != nil)
	if st.Profile != nil {
		e.profilerState(st.Profile)
	}
	e.optional(st.Energy != nil)
	if st.Energy != nil {
		e.energyState(st.Energy)
	}
	blob := e.b
	payload := blob[headerSize:]
	sum := sha256.Sum256(payload)
	// Appending to blob[:0] overwrites the reserved header in place.
	hdr := append(blob[:0], magic...)
	hdr = le32(hdr, SchemaVersion)
	hdr = le64(hdr, uint64(len(payload)))
	_ = append(hdr, sum[:]...)
	return blob, nil
}

// Decode parses and validates a blob produced by Encode. It returns a typed
// error (ErrBadMagic, ErrVersion/VersionError, ErrTruncated, ErrCorrupt,
// ErrMalformed) and never panics, whatever the input.
func Decode(data []byte) (*State, error) {
	if len(data) < 8 {
		if len(data) >= 4 && string(data[:4]) != magic {
			return nil, ErrBadMagic
		}
		return nil, fmt.Errorf("%w: %d-byte blob is shorter than the header", ErrTruncated, len(data))
	}
	if string(data[:4]) != magic {
		return nil, ErrBadMagic
	}
	if v := rd32(data[4:]); v != SchemaVersion {
		return nil, &VersionError{Got: v}
	}
	if len(data) < headerSize {
		return nil, fmt.Errorf("%w: %d-byte blob is shorter than the header", ErrTruncated, len(data))
	}
	n := rd64(data[8:])
	if n > uint64(len(data)-headerSize) {
		return nil, fmt.Errorf("%w: header declares a %d-byte payload, %d present",
			ErrTruncated, n, len(data)-headerSize)
	}
	if n < uint64(len(data)-headerSize) {
		return nil, fmt.Errorf("%w: %d bytes of trailing garbage after the payload",
			ErrMalformed, uint64(len(data)-headerSize)-n)
	}
	payload := data[headerSize:]
	if sum := sha256.Sum256(payload); string(sum[:]) != string(data[16:48]) {
		return nil, ErrCorrupt
	}
	d := &dec{b: payload}
	st := &State{
		Machine: d.machineState(),
		Kernel:  d.kernelState(),
	}
	if d.optional() {
		st.Trace = d.recorderState()
	}
	if d.optional() {
		st.Telemetry = d.samplerState()
	}
	if d.optional() {
		st.Profile = d.profilerState()
	}
	if d.optional() {
		st.Energy = d.energyState()
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(payload) {
		return nil, fmt.Errorf("%w: %d undecoded bytes at end of payload", ErrMalformed, len(payload)-d.off)
	}
	return st, nil
}
