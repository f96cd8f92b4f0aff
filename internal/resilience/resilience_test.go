package resilience

import (
	"testing"
	"time"

	"hpcfail/internal/randx"
)

func TestImmediateRetry(t *testing.T) {
	p := ImmediateRetry{MaxRetries: 2}
	if d, ok := p.NextDelay(1, nil); !ok || d != 0 {
		t.Fatalf("retry 1: got %v, %v", d, ok)
	}
	if _, ok := p.NextDelay(2, nil); !ok {
		t.Fatal("retry 2 should be allowed")
	}
	if _, ok := p.NextDelay(3, nil); ok {
		t.Fatal("retry 3 should exhaust the budget")
	}
	unlimited := ImmediateRetry{}
	if _, ok := unlimited.NextDelay(1_000_000, nil); !ok {
		t.Fatal("unlimited retries must never exhaust")
	}
	if p.Name() != "immediate" {
		t.Fatal("name")
	}
}

func TestFixedBackoff(t *testing.T) {
	p := FixedBackoff{Delay: 30 * time.Minute, MaxRetries: 1}
	if d, ok := p.NextDelay(1, nil); !ok || d != 30*time.Minute {
		t.Fatalf("got %v, %v", d, ok)
	}
	if _, ok := p.NextDelay(2, nil); ok {
		t.Fatal("retry 2 should be refused")
	}
	if p.Name() != "fixed-backoff" {
		t.Fatal("name")
	}
}

func TestExponentialBackoffGrowsAndCaps(t *testing.T) {
	p := ExponentialBackoff{Base: time.Hour, Max: 5 * time.Hour}
	var prev time.Duration
	for retry := 1; retry <= 6; retry++ {
		d, ok := p.NextDelay(retry, nil)
		if !ok {
			t.Fatalf("retry %d refused", retry)
		}
		if d < prev {
			t.Fatalf("retry %d: delay %v shrank below %v", retry, d, prev)
		}
		if d > 5*time.Hour {
			t.Fatalf("retry %d: delay %v exceeds cap", retry, d)
		}
		prev = d
	}
	if d, _ := p.NextDelay(1, nil); d != time.Hour {
		t.Fatalf("first delay = %v, want base", d)
	}
	if d, _ := p.NextDelay(2, nil); d != 2*time.Hour {
		t.Fatalf("second delay = %v, want 2h", d)
	}
	if d, _ := p.NextDelay(10, nil); d != 5*time.Hour {
		t.Fatalf("late delay = %v, want cap", d)
	}
	if err := (ExponentialBackoff{Base: time.Hour}).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (ExponentialBackoff{}).Validate(); err == nil {
		t.Fatal("zero base should fail validation")
	}
	if err := (ExponentialBackoff{Base: time.Hour, Jitter: 2}).Validate(); err == nil {
		t.Fatal("jitter > 1 should fail validation")
	}
}

func TestExponentialBackoffJitterBoundsAndDeterminism(t *testing.T) {
	p := ExponentialBackoff{Base: time.Hour, Jitter: 0.5}
	src := randx.NewSource(7)
	for i := 0; i < 100; i++ {
		d, ok := p.NextDelay(1, src)
		if !ok {
			t.Fatal("refused")
		}
		if d < time.Hour/2 || d > time.Hour {
			t.Fatalf("jittered delay %v outside [30m, 1h]", d)
		}
	}
	a, _ := p.NextDelay(3, randx.NewSource(42))
	b, _ := p.NextDelay(3, randx.NewSource(42))
	if a != b {
		t.Fatalf("same seed gave %v and %v", a, b)
	}
}

func TestWindowFencingLifecycle(t *testing.T) {
	w, err := NewWindowFencing(2, 10*time.Hour, 4*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	h := func(x float64) time.Duration { return time.Duration(x * float64(time.Hour)) }

	if !w.Admit(0, 0) {
		t.Fatal("fresh node must be admitted")
	}
	w.RecordFailure(0, h(1))
	w.RecordRepair(0, h(2))
	if !w.Admit(0, h(2)) {
		t.Fatal("one failure is below the threshold")
	}
	w.RecordFailure(0, h(3))
	if !fenced(w, 0) {
		t.Fatal("two failures in the window must fence")
	}
	if w.Admit(0, h(3)) {
		t.Fatal("fenced node admitted while down")
	}
	w.RecordRepair(0, h(5))
	if w.Admit(0, h(6)) {
		t.Fatal("admitted during probation")
	}
	// Probation ends at 5h + 4h = 9h.
	if !w.Admit(0, h(9)) {
		t.Fatal("must be re-admitted after probation")
	}
	if fenced(w, 0) {
		t.Fatal("re-admission must clear the fence")
	}
	// Re-admission wipes history: a single new failure must not re-fence.
	w.RecordFailure(0, h(9.5))
	w.RecordRepair(0, h(9.6))
	if !w.Admit(0, h(9.6)) {
		t.Fatal("single failure after re-admission must not fence")
	}
	// The node sat fenced-but-up during the whole 4h probation.
	if got := w.FencedNodeHours(h(20)); got < 3.99 || got > 4.01 {
		t.Fatalf("fenced hours = %g, want 4", got)
	}
}

// fenced reports whether node id is currently fenced.
func fenced(w *WindowFencing, id int) bool {
	nf := w.nodes[id]
	return nf != nil && nf.fenced
}

func TestWindowFencingSlidingWindow(t *testing.T) {
	w, err := NewWindowFencing(2, 5*time.Hour, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	w.RecordFailure(3, 0)
	// 6h later the first failure has left the window.
	w.RecordFailure(3, 6*time.Hour)
	if fenced(w, 3) {
		t.Fatal("failures outside the window must not count")
	}
	if got := w.FencedNodeHours(10 * time.Hour); got != 0 {
		t.Fatalf("fenced hours = %g, want 0", got)
	}
}

func TestWindowFencingValidation(t *testing.T) {
	if _, err := NewWindowFencing(0, time.Hour, 0); err == nil {
		t.Fatal("threshold 0")
	}
	if _, err := NewWindowFencing(1, 0, 0); err == nil {
		t.Fatal("zero window")
	}
	if _, err := NewWindowFencing(1, time.Hour, -time.Hour); err == nil {
		t.Fatal("negative probation")
	}
}

func TestNoFencingAndNames(t *testing.T) {
	var p FencingPolicy = NoFencing{}
	p.RecordFailure(1, 0)
	p.RecordRepair(1, 0)
	if !p.Admit(1, 0) || p.FencedNodeHours(time.Hour) != 0 {
		t.Fatal("NoFencing must be a no-op")
	}
	if p.Name() != "no-fencing" {
		t.Fatal("name")
	}
	w, _ := NewWindowFencing(1, time.Hour, 0)
	if w.Name() != "window-fencing" {
		t.Fatal("name")
	}
}

func TestDetectionModels(t *testing.T) {
	src := randx.NewSource(1)
	if (InstantDetection{}).Latency(src) != 0 {
		t.Fatal("instant detection must be zero")
	}
	if d := (FixedDetection{Delay: time.Minute}).Latency(src); d != time.Minute {
		t.Fatalf("fixed latency = %v", d)
	}
	if d := (FixedDetection{Delay: -time.Minute}).Latency(src); d != 0 {
		t.Fatalf("negative fixed latency must clamp, got %v", d)
	}
	u := UniformDetection{Min: time.Minute, Max: 10 * time.Minute}
	if err := u.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		d := u.Latency(src)
		if d < time.Minute || d > 10*time.Minute {
			t.Fatalf("uniform latency %v outside range", d)
		}
	}
	if err := (UniformDetection{Min: -1}).Validate(); err == nil {
		t.Fatal("negative min must fail")
	}
	if err := (UniformDetection{Min: time.Hour, Max: time.Minute}).Validate(); err == nil {
		t.Fatal("max < min must fail")
	}
	for _, m := range []DetectionModel{InstantDetection{}, FixedDetection{}, UniformDetection{}} {
		if m.Name() == "" {
			t.Fatal("empty model name")
		}
	}
}

func TestScenarioValidate(t *testing.T) {
	ok := Scenario{
		Bursts:     []Burst{{At: time.Hour, FirstNode: 0, Span: 8, FailProb: 0.9, RepairHours: 12}},
		Inflations: []RepairInflation{{From: 0, Until: time.Hour, Factor: 3}},
		Cascade:    &Cascade{Prob: 0.3, Lag: time.Second, RepairHours: 2},
	}
	if err := ok.Validate(16); err != nil {
		t.Fatal(err)
	}
	if ok.Empty() {
		t.Fatal("scenario is not empty")
	}
	if !(Scenario{}).Empty() {
		t.Fatal("zero scenario is empty")
	}
	bad := []Scenario{
		{Bursts: []Burst{{At: -1, Span: 1, FailProb: 0.5, RepairHours: 1}}},
		{Bursts: []Burst{{FirstNode: 20, Span: 1, FailProb: 0.5, RepairHours: 1}}},
		{Bursts: []Burst{{Span: 0, FailProb: 0.5, RepairHours: 1}}},
		{Bursts: []Burst{{Span: 1, FailProb: 1.5, RepairHours: 1}}},
		{Bursts: []Burst{{Span: 1, FailProb: 0.5}}},
		{Inflations: []RepairInflation{{From: 2, Until: 1, Factor: 2}}},
		{Inflations: []RepairInflation{{From: 0, Until: 1, Factor: 0}}},
		{Cascade: &Cascade{Prob: 0, RepairHours: 1}},
		{Cascade: &Cascade{Prob: 0.5, Lag: -1, RepairHours: 1}},
	}
	for i, sc := range bad {
		if err := sc.Validate(16); err == nil {
			t.Fatalf("bad scenario %d passed validation", i)
		}
	}
	if err := (Scenario{}).Validate(0); err == nil {
		t.Fatal("empty cluster must fail")
	}
}

func TestScenarioRepairScale(t *testing.T) {
	sc := Scenario{Inflations: []RepairInflation{
		{From: 0, Until: 10 * time.Hour, Factor: 2},
		{From: 5 * time.Hour, Until: 15 * time.Hour, Factor: 3},
	}}
	if f := sc.RepairScale(time.Hour); f != 2 {
		t.Fatalf("scale = %g, want 2", f)
	}
	if f := sc.RepairScale(7 * time.Hour); f != 6 {
		t.Fatalf("overlapping scale = %g, want 6", f)
	}
	if f := sc.RepairScale(20 * time.Hour); f != 1 {
		t.Fatalf("outside scale = %g, want 1", f)
	}
}
