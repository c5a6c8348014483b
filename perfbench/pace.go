package main

import (
	"sync"
	"time"

	"pcsmon/internal/fieldbus"
)

// pacer runs an open-loop schedule: every operation has a due time
// relative to start, and the sender waits for it only when early, never
// for the system under test. An operation started after its due time is
// late by the difference; that lateness is the generator's own delay and
// is kept so a run can show it did not distort the schedule.
type pacer struct {
	start time.Time
	now   func() time.Time
	sleep func(time.Duration)
	late  []float64 // per operation, milliseconds
}

func newPacer(start time.Time) *pacer {
	return &pacer{start: start, now: time.Now, sleep: time.Sleep}
}

// wait blocks until the operation due at offset due may start.
func (p *pacer) wait(due time.Duration) {
	target := p.start.Add(due)
	if d := target.Sub(p.now()); d > 0 {
		p.sleep(d)
	}
	late := p.now().Sub(target)
	if late < 0 {
		late = 0
	}
	p.late = append(p.late, float64(late)/float64(time.Millisecond))
}

// feed runs the open-loop schedule of in from two sending goroutines, one
// per client, each taking the units of its parity. Every observation is
// its sensor frame then its actuator frame; with the redundant tap each
// frame is sent on the sender's own connection, then again on the other.
// send is called for every frame copy and unitDone, when non-nil, after a
// unit's last observation. feed returns the generator lateness (ms) of
// every observation.
func feed(p plan, in *inputs, clients [2]*fieldbus.Client, start time.Time,
	send func(c *fieldbus.Client, f *fieldbus.Frame), unitDone func(u uint8)) []float64 {
	lates := make([][]float64, 2)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			pc := newPacer(start)
			own, other := clients[g], clients[1-g]
			for k, s := range in.Order {
				if int(s.Unit)%2 != g {
					continue
				}
				pc.wait(p.slotDue(k))
				for _, f := range in.frames(s, uint64(s.Index)+1) {
					send(own, &f)
					if p.incident() {
						send(other, &f)
					}
				}
				if unitDone != nil && int(s.Index) == len(in.Units[s.Unit].Ctrl)-1 {
					unitDone(s.Unit)
				}
			}
			lates[g] = pc.late
		}(g)
	}
	wg.Wait()
	return append(lates[0], lates[1]...)
}
