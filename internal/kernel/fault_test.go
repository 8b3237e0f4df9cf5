package kernel

import (
	"strings"
	"testing"

	"repro/internal/mcu"
	"repro/internal/rewriter"
)

// TestBadInstructionContained checks that execution running off the rails
// (an undecodable opcode) terminates only the offending task: the companion
// keeps running to completion and the fault log names the culprit.
func TestBadInstructionContained(t *testing.T) {
	// The victim jumps through a corrupted function pointer into its own
	// heap-address space; the indirect jump lands on unmapped flash that the
	// injector-style corruption below has poisoned with an undecodable word.
	victim := naturalize(t, "victim", `
.data
scratch: .space 2
.text
main:
    clr r20
    ldi r16, 4
loop:
    add r20, r16
    dec r16
    brne loop
    sts scratch, r20
    break
`)
	companion := naturalize(t, "companion", sumSrc)
	k, tasks := bootKernel(t, Config{}, victim, companion)

	// Poison the victim's PC mid-run with an injected jump into flash that
	// holds an undecodable word.
	m := k.M
	const badPC = 0xF000
	if err := m.LoadFlash(badPC, []uint16{0xFFFF}); err != nil {
		t.Fatal(err)
	}
	m.Arm(mcu.HookInject, CostSysInit+4, 0, func(uint64) {
		if cur := k.Current(); cur != tasks[0] {
			return // only corrupt the victim
		}
		m.SetPC(badPC)
	})

	if err := k.Run(50_000_000); err != nil {
		t.Fatalf("kernel.Run must contain the bad instruction, got %v", err)
	}
	if tasks[0].State() != TaskTerminated {
		t.Fatalf("victim state = %v, want terminated", tasks[0].State())
	}
	if !strings.Contains(tasks[0].ExitReason, "bad instruction") &&
		!strings.Contains(tasks[0].ExitReason, "invalid trap id") &&
		!strings.Contains(tasks[0].ExitReason, "foreign program") {
		t.Errorf("victim exit reason %q does not name a contained fault", tasks[0].ExitReason)
	}
	if tasks[1].ExitReason != "exited" {
		t.Errorf("companion exit reason = %q, want clean exit", tasks[1].ExitReason)
	}
	rec, ok := k.LastFault(tasks[0].ID)
	if !ok {
		t.Fatal("no FaultRecord for the victim")
	}
	if rec.Name != tasks[0].Name || rec.Task != tasks[0].ID {
		t.Errorf("fault record names %q (task %d), want %q (task %d)",
			rec.Name, rec.Task, tasks[0].Name, tasks[0].ID)
	}
	if rec.ServiceName() != "native" {
		t.Errorf("fault record service = %q, want native (fault fired outside a service)",
			rec.ServiceName())
	}
	if _, companionFaulted := k.LastFault(tasks[1].ID); companionFaulted {
		t.Error("companion must not appear in the fault log")
	}
}

// TestServiceAttribution checks a fault raised inside a kernel service is
// attributed to that service class: an indirect store through a wild pointer
// faults inside the indirect-memory service.
func TestServiceAttribution(t *testing.T) {
	wild := naturalize(t, "wild", `
.data
buf: .space 4
.text
main:
    ldi r26, 0xF0        ; X = 0x30F0: far outside the logical region
    ldi r27, 0x30
    ldi r16, 0x55
    st X+, r16
    break
`)
	k, tasks := bootKernel(t, Config{}, wild)
	if err := k.Run(10_000_000); err != nil {
		t.Fatalf("run: %v", err)
	}
	if tasks[0].State() != TaskTerminated {
		t.Fatal("wild task not terminated")
	}
	rec, ok := k.LastFault(tasks[0].ID)
	if !ok {
		t.Fatal("no FaultRecord for the wild store")
	}
	if rec.Service != rewriter.ClassIndirectMem {
		t.Errorf("fault attributed to service %v, want %v (got %q)",
			rec.Service, rewriter.ClassIndirectMem, rec.ServiceName())
	}
	if rec.Kind != "invalid logical address" {
		t.Errorf("fault kind = %q, want invalid logical address", rec.Kind)
	}
}

// TestUnknownTrapIDContained checks a stray BREAK whose operand word is not
// an assigned trap id terminates the task instead of erroring the system.
func TestUnknownTrapIDContained(t *testing.T) {
	victim := naturalize(t, "straybreak", sumSrc)
	companion := naturalize(t, "companion2", sumSrc)
	k, tasks := bootKernel(t, Config{}, victim, companion)

	// Plant a BREAK + garbage-id pair in unused flash and steer the victim
	// into it: the machine decodes it as a KTRAP with an unassigned id.
	m := k.M
	const strayPC = 0xF100
	if err := m.LoadFlash(strayPC, []uint16{0x9598, 0xFFF0}); err != nil {
		t.Fatal(err)
	}
	m.Arm(mcu.HookInject, CostSysInit+2, 0, func(uint64) {
		if k.Current() != tasks[0] {
			return
		}
		m.SetPC(strayPC)
	})
	if err := k.Run(50_000_000); err != nil {
		t.Fatalf("unknown trap id must be contained, got %v", err)
	}
	if tasks[0].State() != TaskTerminated || !strings.Contains(tasks[0].ExitReason, "invalid trap id") {
		t.Errorf("victim exit = %v %q, want invalid-trap-id termination",
			tasks[0].State(), tasks[0].ExitReason)
	}
	if tasks[1].ExitReason != "exited" {
		t.Errorf("companion exit reason = %q, want clean exit", tasks[1].ExitReason)
	}
}
