package fleet

import (
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pcsmon/internal/obs"
)

// TestBatchedParityAcrossBatchSizes: every Batch setting — one observation
// per hand-off, small batches the worker takes while producers keep
// pushing, batches larger than the stream — must produce bit-identical
// reports. Batching changes hand-off granularity, never results.
func TestBatchedParityAcrossBatchSizes(t *testing.T) {
	sys := testSystem(t)
	const (
		onset  = 110
		rows   = 230
		sample = 9 * time.Second
	)
	type plantCase struct {
		id         string
		ctrl, proc [][]float64
	}
	cases := []*plantCase{
		{id: "noc"}, {id: "shift-2"}, {id: "shift-9"},
	}
	cases[0].ctrl, cases[0].proc = plantRows(31, rows, 0, onset, 0)
	cases[1].ctrl, cases[1].proc = plantRows(32, rows, 2, onset, 20)
	cases[2].ctrl, cases[2].proc = plantRows(33, rows, 9, onset, 25)

	run := func(batch int) map[string]interface{} {
		t.Helper()
		p, err := NewPool(sys, Config{
			Workers: 2, Mailbox: 4, Batch: batch, EmitEvery: -1, Sample: sample,
		})
		if err != nil {
			t.Fatal(err)
		}
		collect := drain(p)
		for _, pc := range cases {
			if err := p.Attach(pc.id, onset); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < rows; i++ {
			for _, pc := range cases {
				if err := p.Push(pc.id, pc.ctrl[i], pc.proc[i]); err != nil {
					t.Fatal(err)
				}
			}
		}
		out := make(map[string]interface{}, len(cases))
		for _, pc := range cases {
			rep, err := p.Detach(pc.id)
			if err != nil {
				t.Fatal(err)
			}
			out[pc.id] = rep
		}
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		collect()
		return out
	}

	golden := run(1)
	for _, batch := range []int{2, 7, 16, 1024} {
		got := run(batch)
		for id := range golden {
			if !reflect.DeepEqual(got[id], golden[id]) {
				t.Errorf("batch=%d: %s report differs from batch=1 golden", batch, id)
			}
		}
	}
}

// TestLoneObservationScoredBeforeDetach: a single observation in a pool
// whose batch could hold 1024 is scored as soon as its worker is free —
// no Detach, no timer — and the pool runs exactly Workers goroutines.
func TestLoneObservationScoredBeforeDetach(t *testing.T) {
	sys := testSystem(t)
	ctrl, proc := plantRows(41, 1, 0, 0, 0)
	const workers = 2
	p, err := NewPool(sys, Config{Workers: workers, Batch: 1024, Sample: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1<<20)
	stacks := string(buf[:runtime.Stack(buf, true)])
	if got := strings.Count(stacks, "created by pcsmon/internal/fleet.NewPool"); got != workers {
		t.Errorf("pool runs %d goroutines, want %d (one per worker)", got, workers)
	}
	scored := make(chan int, 1)
	go func() {
		for ev := range p.Events() {
			if s, ok := ev.(*Scored); ok {
				scored <- s.Step.Index
				p.Recycle(s)
			}
		}
	}()
	if err := p.Attach("lone", 0); err != nil {
		t.Fatal(err)
	}
	if err := p.Push("lone", ctrl[0], proc[0]); err != nil {
		t.Fatal(err)
	}
	select {
	case idx := <-scored:
		if idx != 0 {
			t.Fatalf("Scored index %d, want 0", idx)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("lone observation never scored before Detach")
	}
	if _, err := p.Detach("lone"); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestBlockedProducerReleased: a producer parked on a full pending batch —
// its worker stuck emitting to a consumer that is not reading — is
// released by Detach and by Close with the matching error instead of
// hanging; both then complete once the consumer reads again.
func TestBlockedProducerReleased(t *testing.T) {
	sys := testSystem(t)
	ctrl, proc := plantRows(42, 1, 0, 0, 0)
	for _, tc := range []struct {
		name string
		stop func(p *Pool) error
		want error
	}{
		{"detach", func(p *Pool) error { _, err := p.Detach("stuck"); return err }, ErrUnknownPlant},
		{"close", func(p *Pool) error { return p.Close() }, ErrClosed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := NewPool(sys, Config{Workers: 1, Batch: 2, EventBuffer: 1, Sample: time.Second})
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Attach("stuck", 0); err != nil {
				t.Fatal(err)
			}
			// Nobody reads Events yet: the worker blocks on its second
			// Scored event, the pending batch fills, and Push parks.
			st := p.shard("stuck").streams["stuck"]
			var started, returned atomic.Int64
			pushErr := make(chan error, 1)
			go func() {
				for {
					started.Add(1)
					if err := p.Push("stuck", ctrl[0], proc[0]); err != nil {
						pushErr <- err
						return
					}
					returned.Add(1)
				}
			}()
			full := func() bool {
				st.pendMu.Lock()
				defer st.pendMu.Unlock()
				return len(st.pending) == cap(st.pending)
			}
			for !full() || started.Load() == returned.Load() {
				runtime.Gosched()
			}
			stopErr := make(chan error, 1)
			go func() { stopErr <- tc.stop(p) }()
			select {
			case err := <-pushErr:
				if !errors.Is(err, tc.want) {
					t.Errorf("released Push returned %v, want %v", err, tc.want)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("%s never released the parked producer", tc.name)
			}
			collect := drain(p)
			select {
			case err := <-stopErr:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("%s hung after the consumer resumed", tc.name)
			}
			if err := p.Close(); err != nil {
				t.Fatal(err)
			}
			collect()
		})
	}
}

// TestBatchConfigValidation: a negative batch is rejected up front.
func TestBatchConfigValidation(t *testing.T) {
	sys := testSystem(t)
	if _, err := NewPool(sys, Config{Batch: -1}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("Batch=-1: %v, want ErrBadConfig", err)
	}
}

// TestSteadyStateZeroAllocPerObservation pins tentpole item (3): once the
// pools are warm, pushing, batching, scoring and emitting one observation —
// with the consumer recycling its Scored events — performs zero allocations
// end to end.
func TestSteadyStateZeroAllocPerObservation(t *testing.T) {
	// The metrics variant pins the observability tentpole's headline
	// invariant: full instrumentation (scoring-latency histogram, batch
	// occupancy, per-unit health handle) must not cost a single allocation
	// on the hot path either.
	t.Run("bare", func(t *testing.T) { testSteadyStateZeroAlloc(t, Config{}) })
	t.Run("metrics", func(t *testing.T) {
		testSteadyStateZeroAlloc(t, Config{
			Metrics: obs.NewRegistry(),
			Health:  obs.NewHealthRegistry(),
		})
	})
}

func testSteadyStateZeroAlloc(t *testing.T, cfg Config) {
	sys := testSystem(t)
	const batch = 8
	ctrl, proc := plantRows(51, 1, 0, 0, 0)
	cfg.Workers, cfg.Batch, cfg.EmitEvery, cfg.Sample = 1, batch, 1, time.Second
	p, err := NewPool(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tokens := make(chan struct{}, 4096)
	go func() {
		for ev := range p.Events() {
			p.Recycle(ev)
			tokens <- struct{}{}
		}
	}()
	if err := p.Attach("hot", 0); err != nil {
		t.Fatal(err)
	}
	pushBatch := func() {
		for i := 0; i < batch; i++ {
			if err := p.Push("hot", ctrl[0], proc[0]); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < batch; i++ {
			<-tokens
		}
	}
	// Warm every pool and ring buffer well past the run-rule window.
	for i := 0; i < 40; i++ {
		pushBatch()
	}
	avg := testing.AllocsPerRun(100, pushBatch)
	perObs := avg / batch
	if perObs > 0.01 && !raceEnabled {
		t.Errorf("steady-state scoring path allocates %.3f times per observation, want 0", perObs)
	}
	if _, err := p.Detach("hot"); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}
