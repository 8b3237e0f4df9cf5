package core

import (
	"errors"
	"testing"

	"repro/internal/kernel"
	"repro/internal/rewriter"
)

const asmSrc = `
.data
v: .space 2
.text
main:
    ldi r16, 5
    sts v, r16
    clr r16
    sts v+1, r16
park:
    sleep
    rjmp park
`

func TestSystemWorkflow(t *testing.T) {
	sys := NewSystem(
		WithKernelConfig(kernel.Config{InitialStack: 96}),
		WithRewriterConfig(rewriter.Config{NoGrouping: true}),
	)
	prog, err := sys.CompileString("wf", asmSrc)
	if err != nil {
		t.Fatal(err)
	}
	task, err := sys.Deploy(prog)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(sys.Tasks()); got != 1 {
		t.Fatalf("Tasks() = %d entries", got)
	}
	if err := sys.Boot(); err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(100_000); err != nil {
		t.Fatal(err)
	}
	if sys.Done() {
		t.Error("parked task should not be done")
	}
	v, err := sys.TaskHeapWord(task, "v")
	if err != nil {
		t.Fatal(err)
	}
	if v != 5 {
		t.Errorf("v = %d, want 5", v)
	}
	b, err := sys.TaskHeapByte(task, "v")
	if err != nil {
		t.Fatal(err)
	}
	if b != 5 {
		t.Errorf("byte v = %d, want 5", b)
	}
	if _, err := sys.TaskHeapWord(task, "ghost"); !errors.Is(err, ErrNoSymbol) {
		t.Errorf("missing symbol err = %v", err)
	}
	if sys.Machine() == nil || sys.Kernel() == nil {
		t.Error("accessors returned nil")
	}
	if got := task.StackAlloc(); got != 96 {
		t.Errorf("initial stack = %d; kernel option not applied", got)
	}
}

func TestSystemCompileCString(t *testing.T) {
	sys := NewSystem()
	prog, err := sys.CompileCString("c", `
int out;
void main() { out = 3 * 7; exit(); }
`)
	if err != nil {
		t.Fatal(err)
	}
	task, err := sys.Deploy(prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Boot(); err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if !sys.Done() {
		t.Fatal("C task did not finish")
	}
	_ = task // region reclaimed at exit; value checked in package minic tests
}

func TestSystemCompileErrorsPropagate(t *testing.T) {
	sys := NewSystem()
	if _, err := sys.CompileString("bad", "main:\n frob\n"); err == nil {
		t.Error("assembler error lost")
	}
	if _, err := sys.CompileCString("bad", "void main() { y = 1; }"); err == nil {
		t.Error("compiler error lost")
	}
}

func TestSymbolOutsideHeapRejected(t *testing.T) {
	sys := NewSystem()
	// A data symbol at the very end of the heap read as a 2-byte word would
	// cross the heap bound.
	prog, err := sys.CompileString("edge", `
.data
pad: .space 1
last: .space 1
.text
main:
park:
    sleep
    rjmp park
`)
	if err != nil {
		t.Fatal(err)
	}
	task, err := sys.Deploy(prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Boot(); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.TaskHeapWord(task, "last"); err == nil {
		t.Error("word read crossing the heap end should fail")
	}
	if _, err := sys.TaskHeapByte(task, "last"); err != nil {
		t.Errorf("byte read of the final heap cell should work: %v", err)
	}
}

var systemSink *System

// BenchmarkNewSystem measures constructing an empty system: the machine, its
// micro-op cache and translator, and the kernel that installs its trap
// handler. Every seek, campaign trial and sweep point pays this once.
func BenchmarkNewSystem(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		systemSink = NewSystem()
	}
}
