package pcsmon_test

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"pcsmon"
)

// TestRunFleetMatchesSingleStream is the facade-level golden parity test:
// run i of a scenario scored through the shared fleet pool must be
// bit-identical to the same seeded run under the single-plant batch
// protocol.
func TestRunFleetMatchesSingleStream(t *testing.T) {
	l := testLab(t)
	scs := pcsmon.PaperScenarios(3)[:2] // IDV(6) + integrity on XMV(3)
	const runsEach = 2

	golden := make(map[string]*pcsmon.Report)
	for _, sc := range scs {
		res, err := l.RunScenarioFor(sc, runsEach, 10)
		if err != nil {
			t.Fatal(err)
		}
		for i, run := range res.Runs {
			golden[fmt.Sprintf("%s/%02d", sc.Key, i)] = run.Report
		}
	}

	var mu sync.Mutex
	verdictEvents := map[string]int{}
	res, err := l.RunFleet(scs, runsEach, pcsmon.FleetRunOptions{
		Hours:        10,
		FleetOptions: pcsmon.FleetOptions{Workers: 2, EmitEvery: -1},
	}, func(ev pcsmon.FleetEvent) {
		if _, ok := ev.Event.(pcsmon.VerdictReady); ok {
			mu.Lock()
			verdictEvents[ev.Plant]++
			mu.Unlock()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) != len(golden) {
		t.Fatalf("fleet produced %d reports, want %d", len(res.Reports), len(golden))
	}
	for id, want := range golden {
		got := res.Reports[id]
		if got == nil {
			t.Errorf("%s: no fleet report", id)
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: fleet report differs from batch golden:\nfleet: %+v\nbatch: %+v", id, got, want)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for id := range golden {
		if verdictEvents[id] != 1 {
			t.Errorf("%s: %d VerdictReady events, want 1", id, verdictEvents[id])
		}
	}
	if res.Stats.Verdicts != uint64(len(golden)) || res.Stats.Observations == 0 {
		t.Errorf("fleet stats %+v", res.Stats)
	}
	if res.Stats.ObsPerSec <= 0 {
		t.Errorf("obs/sec %.1f", res.Stats.ObsPerSec)
	}
}

// TestFleetFacadeLifecycle drives the Fleet wrapper directly with a
// steady-state single-view feed, mirroring TestStreamFeed.
func TestFleetFacadeLifecycle(t *testing.T) {
	l := testLab(t)
	f, err := pcsmon.NewFleet(l.System, pcsmon.FleetOptions{Workers: 2, Sample: 9 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	var events []pcsmon.FleetEvent
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for ev := range f.Events() {
			events = append(events, ev)
		}
	}()

	row := make([]float64, pcsmon.NumVars)
	copy(row, l.Template.BaseXMEAS())
	copy(row[len(l.Template.BaseXMEAS()):], l.Template.BaseXMV())
	if err := f.Attach("steady", 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Attach("steady", 0); !errors.Is(err, pcsmon.ErrDuplicatePlant) {
		t.Errorf("duplicate attach: %v", err)
	}
	for i := 0; i < 50; i++ {
		if err := f.Push("steady", row, row); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Push("ghost", row, row); !errors.Is(err, pcsmon.ErrUnknownPlant) {
		t.Errorf("push unknown: %v", err)
	}
	rep, err := f.Detach("steady")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != pcsmon.VerdictNormal {
		t.Errorf("steady fleet stream classified %v (%s)", rep.Verdict, rep.Explanation)
	}
	if st := f.Stats(); st.Observations != 50 || st.Verdicts != 1 {
		t.Errorf("stats %+v", st)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	<-drained
	if err := f.Attach("late", 0); !errors.Is(err, pcsmon.ErrFleetClosed) {
		t.Errorf("attach after close: %v", err)
	}
	// The event stream ends with the verdict.
	if len(events) == 0 {
		t.Fatal("no events")
	}
	last, ok := events[len(events)-1].Event.(pcsmon.VerdictReady)
	if !ok || last.Samples != 50 {
		t.Errorf("last event %+v, want VerdictReady with 50 samples", events[len(events)-1])
	}
}

// TestNewFleetRejectsFlushEvery: batches are delivered as soon as a worker
// is free, so any flush cadence is a configuration error naming the field.
func TestNewFleetRejectsFlushEvery(t *testing.T) {
	sys := pairingTestSystem(t)
	for _, d := range []time.Duration{2 * time.Millisecond, -1} {
		_, err := pcsmon.NewFleet(sys, pcsmon.FleetOptions{FlushEvery: d})
		if !errors.Is(err, pcsmon.ErrBadConfig) || !strings.Contains(err.Error(), "FlushEvery") {
			t.Errorf("FlushEvery=%v: NewFleet = %v, want ErrBadConfig naming FlushEvery", d, err)
		}
	}
}

// TestRunFleetValidation: empty campaigns are rejected with ErrBadConfig.
func TestRunFleetValidation(t *testing.T) {
	l := testLab(t)
	if _, err := l.RunFleet(nil, 1, pcsmon.FleetRunOptions{}, nil); !errors.Is(err, pcsmon.ErrBadConfig) {
		t.Errorf("no scenarios: %v", err)
	}
	if _, err := l.RunFleet(pcsmon.PaperScenarios(3)[:1], 0, pcsmon.FleetRunOptions{}, nil); !errors.Is(err, pcsmon.ErrBadConfig) {
		t.Errorf("zero runs: %v", err)
	}
}
