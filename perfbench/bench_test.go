package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestHostFactor(t *testing.T) {
	d, err := refProbe()
	if err != nil || d <= 0 {
		t.Fatalf("refProbe() = %v, %v; want a positive CPU time", d, err)
	}
	if got, want := hostFactor([]float64{0.2, 1.4, 2.6}), 0.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("hostFactor(mean 1.4 ms) = %g, want %g for a %v reference", got, want, refNominal)
	}
	if got := hostFactor(nil); !math.IsNaN(got) {
		t.Errorf("hostFactor(nil) = %g, want NaN", got)
	}
}

func TestPercentileRule(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want bool
	}{
		{1000, 99, true},
		{999, 99, false},
		{100, 90, true},
		{99, 90, false},
		{20, 50, true},
		{19, 50, false},
	}
	for _, c := range cases {
		if got := supports(c.n, c.p); got != c.want {
			t.Errorf("supports(%d, p%g) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	if got := highestSupported(150, 50, 90, 99); got != 90 {
		t.Errorf("highestSupported(150) = %g, want 90", got)
	}
	if got := highestSupported(5, 50, 90, 99); got != 0 {
		t.Errorf("highestSupported(5) = %g, want 0", got)
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%g of 1..100 = %g, want %g", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples is not NaN")
	}
}

func TestMedianAndQuartiles(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %g", got)
	}
	in := []float64{4, 1, 3, 2}
	if got := median(in); got != 2.5 {
		t.Errorf("median even = %g", got)
	}
	if in[0] != 4 {
		t.Error("median reordered its input")
	}
	// Reference values from Python's statistics.quantiles(xs, n=4).
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q2-c.q2) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %g, want 1", got)
	}
}

func TestSlicedPercentile(t *testing.T) {
	ramp := func(lo float64) []float64 {
		xs := make([]float64, 100)
		for i := range xs {
			xs[i] = lo + float64(i)
		}
		return xs
	}
	// A stalled slice and a slice too small for a p90 do not move the
	// median of the per-slice p90s.
	stalled := ramp(1000)
	slices := [][]float64{ramp(0), ramp(10), stalled, ramp(20), {5000}}
	if got := slicedPercentile(slices, 90); got != 104 {
		t.Errorf("slicedPercentile(p90) = %g, want 104", got)
	}
	if got := slicedPercentile([][]float64{{3, 1}, {2}}, 90); got != 3 {
		t.Errorf("slicedPercentile(no supported slice) = %g, want the pooled p90 3", got)
	}
	if got := slicedPercentile(nil, 90); !math.IsNaN(got) {
		t.Errorf("slicedPercentile(nil) = %g, want NaN", got)
	}
}

func TestSSEReader(t *testing.T) {
	stream := ": connected\n\n" +
		"event: scored\ndata: {\"unit\":\"unit-001\"}\n\n" +
		": heartbeat\n\n" +
		"event: alarm\ndata: line one\ndata: line two\n\n" +
		"data:bare\n\n" +
		"event: verdict\ndata: cut off before its blank line\n"
	r := newSSEReader(strings.NewReader(stream))
	want := []sseEvent{
		{Type: "scored", Data: `{"unit":"unit-001"}`},
		{Type: "alarm", Data: "line one\nline two"},
		{Type: "message", Data: "bare"},
	}
	for i, w := range want {
		ev, err := r.Next()
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if ev != w {
			t.Errorf("event %d = %+v, want %+v", i, ev, w)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("trailing partial event: err %v, want io.EOF", err)
	}
}

// fakeClock drives a pacer without real sleeps: sleep advances the clock,
// and work advances it to model the sender's own delay.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time        { return c.t }
func (c *fakeClock) sleep(d time.Duration) { c.t = c.t.Add(d) }

func TestPacerLateness(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	p := &pacer{start: clk.t, now: clk.now, sleep: clk.sleep}
	// Op 0 due at 0 starts on time; it takes 3 ms, so op 1 (due 1 ms) is
	// 2 ms late and op 2 (due 2 ms) 1 ms late; op 3 due at 10 ms waits.
	p.wait(0)
	clk.sleep(3 * time.Millisecond)
	p.wait(time.Millisecond)
	p.wait(2 * time.Millisecond)
	p.wait(10 * time.Millisecond)
	want := []float64{0, 2, 1, 0}
	if len(p.late) != len(want) {
		t.Fatalf("late = %v", p.late)
	}
	for i := range want {
		if math.Abs(p.late[i]-want[i]) > 1e-9 {
			t.Errorf("op %d late %g ms, want %g", i, p.late[i], want[i])
		}
	}
	if got := clk.t.Sub(p.start); got != 10*time.Millisecond {
		t.Errorf("the early op started at %v, want its due time 10ms", got)
	}
}

func TestBuildOrder(t *testing.T) {
	lens := []int{5, 3, 4}
	order := buildOrder(lens, 2)
	if len(order) != 12 {
		t.Fatalf("order has %d slots, want 12", len(order))
	}
	next := make([]int32, len(lens))
	firstSlot := make([]int, len(lens))
	for k, s := range order {
		if s.Index != next[s.Unit] {
			t.Fatalf("slot %d: unit %d index %d, want %d", k, s.Unit, s.Index, next[s.Unit])
		}
		if s.Index == 0 {
			firstSlot[s.Unit] = k
		}
		next[s.Unit]++
	}
	// Unit 1 joins one round late (1 mod 2), after units 0 and 2 started.
	if !(firstSlot[0] < firstSlot[2] && firstSlot[2] < firstSlot[1]) {
		t.Errorf("first slots %v: unit 1 should start a round late", firstSlot)
	}
}

// TestSmoke runs each workload end to end at a tiny size, untraced and
// traced, against a freshly built mspctool, and checks that the result
// carries exactly the metrics BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds mspctool and runs child processes")
	}
	work := t.TempDir()
	bin := filepath.Join(work, "bin", "mspctool")
	if out, err := exec.Command("go", "build", "-o", bin, "pcsmon/cmd/mspctool").CombinedOutput(); err != nil {
		t.Fatalf("build mspctool: %v\n%s", err, out)
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
		Work     []struct{ Name string }       `json:"workloads"`
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	for _, w := range decl.Work {
		for _, trace := range []bool{false, true} {
			p := defaultPlan(w.Name, 3, 1, trace)
			p.Units, p.Rate, p.Warm, p.IdleStarts, p.ReplayPasses = 4, 400, 70, 1, 1
			res, meta, err := runBench(p, "..", work, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v, %d of %d failed: %v",
					w.Name, trace, res.Correct, res.Failed, res.Attempted, meta["failures"])
			}
			want := decl.EndToEnd
			if trace {
				want = decl.PerLayer
			}
			var names []string
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.Name, trace, m.Name, got, m.Unit)
				}
				names = append(names, m.Name)
			}
			if len(res.Metrics) != len(want) {
				var got []string
				for k := range res.Metrics {
					got = append(got, k)
				}
				sort.Strings(got)
				t.Errorf("%s trace=%v: metrics %v, declared %v", w.Name, trace, got, names)
			}
		}
	}
}
