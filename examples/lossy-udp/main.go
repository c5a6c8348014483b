// Lossy-udp: the paper's monitoring topology over a transport that
// actually loses frames — the regime the pairing layer's orphan/gap/
// hold-last machinery was built for.
//
// Two collectors observe the same plant and report over UDP, one datagram
// per frame. Between collectors and monitor sits a lossy channel that
// drops, duplicates, delays and reorders datagrams (seeded, so the demo is
// reproducible); a man-in-the-middle on the actuator path forges XMV(3) to
// zero mid-stream. The monitor never sees a connection — only whatever
// datagrams survive — yet the pairing correlator turns the surviving
// frames into paired cross-view observations, accounts every loss, and
// the diagnosis still concludes what no single view can: the two views
// disagree about XMV(3), an integrity attack, localized.
//
//	go run ./examples/lossy-udp
package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"sync"
	"time"

	"pcsmon"
	"pcsmon/internal/core"
	"pcsmon/internal/dataset"
	"pcsmon/internal/fieldbus"
	"pcsmon/internal/historian"
	"pcsmon/internal/te"
)

func main() {
	if err := run(os.Stdout, 260, 130); err != nil {
		fmt.Fprintln(os.Stderr, "lossy-udp:", err)
		os.Exit(1)
	}
}

// lossyChannel models the unreliable network between a collector and the
// monitor: datagrams are dropped, duplicated, or held back and released
// out of order. Deterministic given its seed.
type lossyChannel struct {
	cli  *fieldbus.UDPClient
	rng  *rand.Rand
	held []*fieldbus.Frame // delayed datagrams awaiting release

	sent, dropped, dups, reordered int
}

func newLossyChannel(cli *fieldbus.UDPClient, seed int64) *lossyChannel {
	return &lossyChannel{cli: cli, rng: rand.New(rand.NewSource(seed))}
}

// send passes one frame through the channel.
func (ch *lossyChannel) send(f *fieldbus.Frame) error {
	r := ch.rng.Float64()
	switch {
	case r < 0.03: // lost in transit
		ch.dropped++
		return nil
	case r < 0.05: // duplicated by a flaky switch
		ch.dups++
		if err := ch.transmit(f); err != nil {
			return err
		}
		return ch.transmit(f)
	case r < 0.12: // delayed: held back, released later out of order
		ch.held = append(ch.held, f.Clone())
		ch.reordered++
		return nil
	}
	if err := ch.transmit(f); err != nil {
		return err
	}
	// Release held datagrams behind fresher traffic (the reorder).
	if len(ch.held) > 0 && ch.rng.Float64() < 0.5 {
		old := ch.held[0]
		ch.held = ch.held[1:]
		return ch.transmit(old)
	}
	return nil
}

// flush releases everything still held.
func (ch *lossyChannel) flush() error {
	for _, f := range ch.held {
		if err := ch.transmit(f); err != nil {
			return err
		}
	}
	ch.held = nil
	return nil
}

func (ch *lossyChannel) transmit(f *fieldbus.Frame) error {
	ch.sent++
	return ch.cli.Send(f)
}

// syncWriter serializes the event goroutine's lines with run's own: both
// write the same caller-supplied writer.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// run streams samples observations, arming the MitM at step armAt.
func run(w io.Writer, samples, armAt int) error {
	w = &syncWriter{w: w}
	const xmv3 = te.NumXMEAS + te.XmvAFeed // XMV(3) observation column

	// The same quick synthetic plant as the two-view-live demo: correlated
	// NOC rows around an operating point.
	m := historian.NumVars
	loadings := make([]float64, m)
	lr := rand.New(rand.NewSource(99))
	for j := range loadings {
		loadings[j] = lr.NormFloat64()
	}
	rng := rand.New(rand.NewSource(7))
	noc := func() []float64 {
		z := rng.NormFloat64()
		row := make([]float64, m)
		for j := 0; j < m; j++ {
			row[j] = 50 + z*loadings[j] + 0.3*rng.NormFloat64()
		}
		return row
	}

	cal, err := dataset.New(historian.VarNames())
	if err != nil {
		return err
	}
	for i := 0; i < 600; i++ {
		if err := cal.Append(noc()); err != nil {
			return err
		}
	}
	sys, err := core.Calibrate(cal, core.Config{})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "monitor calibrated on %d NOC observations\n", cal.Rows())

	// The monitoring endpoint: UDP listener -> pairing ingest -> fleet.
	fl, err := pcsmon.NewFleet(sys, pcsmon.FleetOptions{Workers: 1, EmitEvery: -1, Sample: 9 * time.Second})
	if err != nil {
		return err
	}
	var outMu sync.Mutex
	drained := make(chan struct{})
	verdicts := map[string]*pcsmon.Report{}
	go func() {
		defer close(drained)
		for ev := range fl.Events() {
			switch e := ev.Event.(type) {
			case pcsmon.AlarmRaised:
				outMu.Lock()
				fmt.Fprintf(w, "ALARM [%s/%s] at obs %d (charts %v)\n", ev.Plant, e.View, e.Index, e.Charts)
				outMu.Unlock()
			case pcsmon.VerdictReady:
				verdicts[ev.Plant] = e.Report
			}
		}
	}()
	pi, err := fl.NewPairingIngest(pcsmon.PairingOptions{
		Window:  64,              // the reorder depth the lossy channel must stay inside
		Timeout: 2 * time.Second, // wall-clock horizon for datagrams that never arrive
		Onset:   armAt,
	}, func(ev pcsmon.FleetEvent) {
		if s, ok := ev.Event.(pcsmon.ViewStalled); ok {
			outMu.Lock()
			fmt.Fprintf(w, "VIEW STALL [%s]: %s frames missing since obs %d\n", ev.Plant, s.View, s.Seq)
			outMu.Unlock()
		}
	})
	if err != nil {
		return err
	}
	srv, err := fieldbus.NewUDPServer("127.0.0.1:0", func(f *fieldbus.Frame) {
		if _, err := pi.OfferFrame(f); err != nil {
			outMu.Lock()
			fmt.Fprintf(w, "ingest error: %v\n", err)
			outMu.Unlock()
		}
	})
	if err != nil {
		return err
	}
	defer func() { _ = srv.Close() }()
	fmt.Fprintf(w, "monitor listening on udp://%s\n", srv.Addr())

	// Each collector sends through its own lossy channel.
	ctrlCli, err := fieldbus.DialUDP(srv.Addr())
	if err != nil {
		return err
	}
	defer func() { _ = ctrlCli.Close() }()
	plantCli, err := fieldbus.DialUDP(srv.Addr())
	if err != nil {
		return err
	}
	defer func() { _ = plantCli.Close() }()
	ctrlNet := newLossyChannel(ctrlCli, 41)
	plantNet := newLossyChannel(plantCli, 42)

	fmt.Fprintf(w, "streaming %d observations through a lossy network; MitM arms at obs %d…\n", samples, armAt)
	for i := 0; i < samples; i++ {
		truth := noc()
		ctrlView := append([]float64(nil), truth...)
		procView := append([]float64(nil), truth...)
		if i >= armAt {
			if i == armAt {
				outMu.Lock()
				fmt.Fprintln(w, ">>> MitM armed: actuator datagrams now deliver XMV(3)=0 to the plant")
				outMu.Unlock()
			}
			ramp := 0.1 * float64(i-armAt)
			if ramp > 15 {
				ramp = 15
			}
			ctrlView[xmv3] = truth[xmv3] + ramp
			procView[xmv3] = 0
		}
		seq := uint64(i)
		if err := ctrlNet.send(&fieldbus.Frame{Type: fieldbus.FrameSensor, Unit: 1, Seq: seq, Values: ctrlView}); err != nil {
			return err
		}
		if err := plantNet.send(&fieldbus.Frame{Type: fieldbus.FrameActuator, Unit: 1, Seq: seq, Values: procView}); err != nil {
			return err
		}
		if i%32 == 31 {
			time.Sleep(time.Millisecond) // loopback pacing
		}
		if err := pi.Tick(time.Now()); err != nil {
			return err
		}
	}
	if err := ctrlNet.flush(); err != nil {
		return err
	}
	if err := plantNet.flush(); err != nil {
		return err
	}
	// Wait until the surviving datagrams have been ingested (the count
	// stops moving), then finalize the stream.
	attempted := uint64(ctrlNet.sent + plantNet.sent)
	deadline := time.Now().Add(30 * time.Second)
	for pi.Stats().Frames < attempted && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
		if err := pi.Tick(time.Now()); err != nil {
			return err
		}
	}
	if err := pi.Flush(); err != nil {
		return err
	}
	st := pi.Stats()
	ust := srv.Stats()
	outMu.Lock()
	fmt.Fprintf(w, "channel: %d datagrams sent, %d dropped, %d duplicated, %d delayed/reordered\n",
		ctrlNet.sent+plantNet.sent, ctrlNet.dropped+plantNet.dropped,
		ctrlNet.dups+plantNet.dups, ctrlNet.reordered+plantNet.reordered)
	fmt.Fprintf(w, "monitor:  %d datagrams received (%d corrupt), %d paired, %d orphaned, %d gap obs, %d dup — measured loss rate %.1f%%\n",
		ust.Datagrams, ust.Corrupt, st.Paired, st.OrphanSensors+st.OrphanActuators,
		st.GapSeqs, st.Duplicates, 100*st.LossRate())
	outMu.Unlock()

	for _, id := range pi.Plants() {
		if _, err := fl.Detach(id); err != nil {
			return err
		}
	}
	if err := fl.Close(); err != nil {
		return err
	}
	<-drained

	for id, rep := range verdicts {
		fmt.Fprintf(w, "\nplant %s VERDICT: %s", id, rep.Verdict)
		if rep.AttackedVar >= 0 {
			fmt.Fprintf(w, " — localized channel: %s", historian.VarName(rep.AttackedVar))
		}
		fmt.Fprintf(w, "\n  %s\n", rep.Explanation)
	}
	fmt.Fprintln(w, "\nthe network lost, duplicated and reordered datagrams; the pairing layer")
	fmt.Fprintln(w, "accounted every one, and the cross-view diagnosis still holds.")
	return nil
}
