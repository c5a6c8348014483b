package pcsmon_test

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"pcsmon"
)

// TestRunFleetBatchedParityScenarios is the scenario-level half of the
// batching contract: every §V scenario scored through the fleet — one
// observation per hand-off, small batches, the default 16 and batches
// larger than a run — must be bit-identical to the single-plant batch
// protocol (AnalyzeViews). Batching changes hand-off granularity, never
// results.
func TestRunFleetBatchedParityScenarios(t *testing.T) {
	l := testLab(t)
	scs := pcsmon.PaperScenarios(3)
	const hours = 8

	golden := make(map[string]*pcsmon.Report, len(scs))
	for _, sc := range scs {
		res, err := l.RunScenarioFor(sc, 1, hours)
		if err != nil {
			t.Fatal(err)
		}
		golden[fmt.Sprintf("%s/00", sc.Key)] = res.Runs[0].Report
	}

	for _, batch := range []int{1, 2, 7, 16, 1024} {
		res, err := l.RunFleet(scs, 1, pcsmon.FleetRunOptions{
			Hours: hours,
			FleetOptions: pcsmon.FleetOptions{
				Workers: 2, EmitEvery: -1, Batch: batch,
			},
		}, nil)
		if err != nil {
			t.Fatalf("batch=%d: %v", batch, err)
		}
		if len(res.Reports) != len(golden) {
			t.Fatalf("batch=%d: %d reports, want %d", batch, len(res.Reports), len(golden))
		}
		for id, want := range golden {
			if got := res.Reports[id]; !reflect.DeepEqual(got, want) {
				t.Errorf("batch=%d: %s differs from batch-protocol golden:\nfleet: %+v\nbatch: %+v",
					batch, id, got, want)
			}
		}
	}
}

// TestRunFleetBatchedAdaptiveParity: batching must stay invisible through
// adaptive model swaps — the slow-drift run with recalibration enabled
// produces a bit-identical report whether observations travel one per
// message or sixteen, and both paths actually swap models along the way.
func TestRunFleetBatchedAdaptiveParity(t *testing.T) {
	l := testLab(t)
	sc := pcsmon.SlowDriftScenario(3)
	run := func(batch int) (map[string]*pcsmon.Report, int) {
		swaps := 0
		res, err := l.RunFleet([]pcsmon.Scenario{sc}, 1, pcsmon.FleetRunOptions{
			Hours: 12,
			FleetOptions: pcsmon.FleetOptions{
				EmitEvery: -1, Batch: batch,
				Adaptive: pcsmon.AdaptiveOptions{Enabled: true, Every: 256, Forget: 0.999},
			},
		}, func(ev pcsmon.FleetEvent) {
			if _, ok := ev.Event.(pcsmon.ModelSwapped); ok {
				swaps++
			}
		})
		if err != nil {
			t.Fatalf("batch=%d: %v", batch, err)
		}
		return res.Reports, swaps
	}
	unbatched, swapsUnbatched := run(1)
	batched, swapsBatched := run(16)
	if swapsUnbatched == 0 || swapsBatched == 0 {
		t.Fatalf("adaptation never swapped (unbatched %d, batched %d) — parity would be vacuous",
			swapsUnbatched, swapsBatched)
	}
	if !reflect.DeepEqual(batched, unbatched) {
		t.Errorf("batched adaptive reports differ from unbatched:\nbatched:   %+v\nunbatched: %+v",
			batched, unbatched)
	}
}

// TestPairingIngestBatchedParity: the two-view pairing ingest feeding
// batched hand-offs — with the actuator view running behind the sensor
// view — produces reports bit-identical to per-observation delivery.
func TestPairingIngestBatchedParity(t *testing.T) {
	sys := pairingTestSystem(t)
	const (
		rows  = 220
		onset = 110
		skew  = 5
	)
	ctrl, proc := pairingRows(21, rows, 3, onset, 20)

	run := func(batch int) *pcsmon.Report {
		t.Helper()
		fl, err := pcsmon.NewFleet(sys, pcsmon.FleetOptions{
			Workers: 2, EmitEvery: -1, Sample: 9 * time.Second, Batch: batch,
		})
		if err != nil {
			t.Fatal(err)
		}
		drained := make(chan struct{})
		go func() {
			defer close(drained)
			for range fl.Events() {
			}
		}()
		pi, err := fl.NewPairingIngest(pcsmon.PairingOptions{Window: 32, Onset: onset}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < rows; i++ {
			if err := pi.OfferSensor(0, uint64(i), ctrl[i]); err != nil {
				t.Fatal(err)
			}
			if i >= skew {
				if err := pi.OfferActuator(0, uint64(i-skew), proc[i-skew]); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i := rows - skew; i < rows; i++ {
			if err := pi.OfferActuator(0, uint64(i), proc[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := pi.Flush(); err != nil {
			t.Fatal(err)
		}
		if st := pi.Stats(); st.Paired != rows {
			t.Fatalf("batch=%d: skewed replay lost pairings: %+v", batch, st)
		}
		rep, err := fl.Detach("unit-000")
		if err != nil {
			t.Fatal(err)
		}
		if err := fl.Close(); err != nil {
			t.Fatal(err)
		}
		<-drained
		return rep
	}

	golden := run(1)
	for _, batch := range []int{3, 16} {
		if got := run(batch); !reflect.DeepEqual(got, golden) {
			t.Errorf("batch=%d: pairing-ingest report differs from unbatched:\nbatched:   %+v\nunbatched: %+v",
				batch, got, golden)
		}
	}
	if golden.Verdict != pcsmon.VerdictIntegrityAttack {
		t.Errorf("golden verdict %v (%s)", golden.Verdict, golden.Explanation)
	}
}
