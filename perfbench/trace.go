package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"pcsmon"
	"pcsmon/internal/control"
	"pcsmon/internal/core"
	"pcsmon/internal/fieldbus"
)

// Span kinds of the traced in-process run: the public calls that
// control.Plane composes, wrapped from the benchmark's own code.
const (
	spanSend    uint8 = iota + 1 // fieldbus.Client.Send
	spanHandler                  // benchmark-owned fieldbus.Server handler
	spanRecord                   // fieldbus.CaptureStore.Record
	spanOffer                    // pcsmon.PairingIngest.OfferFrame
	spanFlush                    // fieldbus.CaptureStore.Flush
	spanDetach                   // pcsmon.Fleet.Detach
)

// span is one timed call. Spans of one observation share (Unit, Seq);
// Parent indexes the span that caused this one (-1 for none). Times are
// nanoseconds since the run's schedule start.
type span struct {
	Kind       uint8
	Unit       uint8
	Frame      fieldbus.FrameType
	Seq        uint32
	Start, End int64
	Parent     int32
}

// spanLog is an append-only, preallocated span buffer shared by the
// sender, handler and ticker goroutines; spans beyond its capacity are
// counted, not kept.
type spanLog struct {
	t0    time.Time
	spans []span
	n     atomic.Int64
	lost  atomic.Int64
}

func newSpanLog(t0 time.Time, capacity int) *spanLog {
	return &spanLog{t0: t0, spans: make([]span, capacity)}
}

func (l *spanLog) now() int64 { return int64(time.Since(l.t0)) }

// add stores s and returns its index (-1 when the buffer is full).
func (l *spanLog) add(s span) int32 {
	i := l.n.Add(1) - 1
	if i >= int64(len(l.spans)) {
		l.lost.Add(1)
		return -1
	}
	l.spans[i] = s
	return int32(i)
}

func (l *spanLog) all() []span {
	return l.spans[:min(l.n.Load(), int64(len(l.spans)))]
}

// pipeRun is what one in-process pass over the workload's frames
// observed.
type pipeRun struct {
	t0       time.Time
	scoredAt [][]int64 // per unit, per observation: SampleScored arrival (ns since t0), 0 = never
	complete [][]int32 // per unit, per observation: completing handler span, -1 = none
	spans    *spanLog  // nil when untraced
	events   int64
	frames   int64 // frames the handler received
	deduped  uint64
	paired   uint64
	pending  uint64 // max correlator pending steps
	late     []float64
}

// inProcess replays the workload's frames on the live schedule through
// the calls control.Plane composes — Client.Send into a benchmark-owned
// fieldbus.Server whose handler records (incident) and offers the frame
// to a PairingIngest over a Fleet — with the serve configuration mapped
// onto pcsmon.FleetOptions and PairingOptions and every SampleScored
// emitted. With traced set, every call is wrapped in a span.
func inProcess(p plan, in *inputs, sys *core.System, traced bool, dir string) (*pipeRun, error) {
	cfg := serveConfig(p, in, filepath.Join(dir, fmt.Sprintf("trace%t-chain", traced)))
	fl, err := pcsmon.NewFleet(sys, pcsmon.FleetOptions{
		Workers:     cfg.Fleet.Workers,
		Mailbox:     cfg.Fleet.Mailbox,
		Batch:       cfg.Fleet.Batch,
		FlushEvery:  time.Duration(cfg.Fleet.FlushEveryMS * float64(time.Millisecond)),
		EventBuffer: cfg.Fleet.EventBuffer,
		EmitEvery:   1,
		Sample:      cfg.Sample(),
	})
	if err != nil {
		return nil, err
	}
	onsets := cfg.UnitOnsets()
	pi, err := fl.NewPairingIngest(pcsmon.PairingOptions{
		Window:     cfg.Pairing.Window,
		Timeout:    cfg.PairTimeout(),
		StallAfter: cfg.Pairing.StallAfter,
		Onset:      cfg.OnsetIndex(),
		OnsetFor:   func(u uint8) int { return onsets[u] },
		Dedup:      cfg.Pairing.Dedup,
	}, nil)
	if err != nil {
		_ = fl.Close()
		return nil, err
	}
	var rec *fieldbus.CaptureStore
	var recMu sync.Mutex
	if cfg.Record.Path != "" {
		if rec, err = fieldbus.OpenCaptureStore(cfg.Record.Path, fieldbus.StoreOptions{SegmentBytes: cfg.Record.SegmentBytes}); err != nil {
			_ = fl.Close()
			return nil, err
		}
		defer rec.Abandon() // the recording itself is not kept
	}

	run := &pipeRun{t0: time.Now().Add(50 * time.Millisecond)}
	run.scoredAt = make([][]int64, len(in.Units))
	run.complete = make([][]int32, len(in.Units))
	offered := make([][]atomic.Int32, len(in.Units))
	for u, st := range in.Units {
		run.scoredAt[u] = make([]int64, len(st.Ctrl))
		run.complete[u] = make([]int32, len(st.Ctrl))
		for i := range run.complete[u] {
			run.complete[u][i] = -1
		}
		offered[u] = make([]atomic.Int32, len(st.Ctrl))
	}
	if traced {
		// Per observation: sends and handler/offer (and record) spans per
		// frame copy, plus flushes and detaches.
		perObs := p.framesPerObs() * 4
		run.spans = newSpanLog(run.t0, in.observations()*perObs+4*len(in.Units)+1024)
	}
	sl := run.spans
	var frames atomic.Int64
	var offerErr atomic.Value

	handler := func(f *fieldbus.Frame) {
		frames.Add(1)
		var hs int64
		if sl != nil {
			hs = sl.now()
		}
		parent := int32(-1)
		if sl != nil {
			parent = sl.add(span{Kind: spanHandler, Unit: f.Unit, Frame: f.Type, Seq: uint32(f.Seq), Start: hs, Parent: -1})
		}
		if rec != nil {
			recMu.Lock()
			rs := time.Now()
			err := rec.Record(f)
			re := time.Now()
			recMu.Unlock()
			if err != nil {
				offerErr.Store(err)
			}
			if sl != nil {
				sl.add(span{Kind: spanRecord, Unit: f.Unit, Frame: f.Type, Seq: uint32(f.Seq),
					Start: int64(rs.Sub(sl.t0)), End: int64(re.Sub(sl.t0)), Parent: parent})
			}
		}
		var ofs int64
		if sl != nil {
			ofs = sl.now()
		}
		ok, err := pi.OfferFrame(f)
		if err != nil {
			offerErr.Store(err)
		}
		if sl != nil {
			oe := sl.now()
			sl.add(span{Kind: spanOffer, Unit: f.Unit, Frame: f.Type, Seq: uint32(f.Seq), Start: ofs, End: oe, Parent: parent})
			if parent >= 0 {
				sl.spans[parent].End = oe
			}
		}
		i := int(f.Seq) - 1
		if ok && int(f.Unit) < len(offered) && i >= 0 && i < len(offered[f.Unit]) {
			if offered[f.Unit][i].Add(1) == 2 {
				run.complete[f.Unit][i] = parent
			}
		}
	}
	srv, err := fieldbus.NewServer("127.0.0.1:0", handler)
	if err != nil {
		_ = fl.Close()
		return nil, err
	}
	defer func() { _ = srv.Close() }()
	var clients [2]*fieldbus.Client
	for i := range clients {
		if clients[i], err = fieldbus.Dial(srv.Addr()); err != nil {
			_ = fl.Close()
			return nil, err
		}
		defer func(c *fieldbus.Client) { _ = c.Close() }(clients[i])
	}

	// Event consumer: SampleScored arrivals; a unit whose last observation
	// scored is handed to the detacher (incident), which must not be the
	// consumer itself — Detach waits for the verdict to cross Events().
	var scored atomic.Int64
	detachQ := make(chan uint8, len(in.Units))
	consumed := make(chan struct{})
	go func() {
		defer close(consumed)
		for ev := range fl.Events() {
			run.events++
			s, ok := ev.Event.(pcsmon.SampleScored)
			if !ok {
				continue
			}
			var u int
			if _, err := fmt.Sscanf(ev.Plant, "unit-%d", &u); err != nil || u >= len(in.Units) || s.Index >= len(run.scoredAt[u]) {
				continue
			}
			run.scoredAt[u][s.Index] = int64(time.Since(run.t0))
			scored.Add(1)
			if p.incident() && s.Index == len(run.scoredAt[u])-1 {
				detachQ <- uint8(u)
			}
		}
	}()
	detach := func(u uint8) {
		var ds int64
		if sl != nil {
			ds = sl.now()
		}
		if _, err := fl.Detach(pcsmon.PlantID(u)); err != nil {
			offerErr.Store(err)
		}
		if sl != nil {
			sl.add(span{Kind: spanDetach, Unit: u, Start: ds, End: sl.now(), Parent: -1})
		}
	}
	detached := make(chan struct{})
	go func() {
		defer close(detached)
		for u := range detachQ {
			detach(u)
		}
	}()

	// Ticker: the plane's pairing age horizon and capture flush cadence.
	// The pending high-water mark is taken inside the timed window only:
	// during the warm-up every unit holds a full reorder window until its
	// first emission.
	windowAt := run.t0.Add(p.slotDue(in.WindowStart))
	stopTick := make(chan struct{})
	tickDone := make(chan struct{})
	go func() {
		defer close(tickDone)
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		lastFlush := time.Now()
		for {
			select {
			case <-stopTick:
				return
			case now := <-t.C:
				_ = pi.Tick(now)
				if st := pi.Stats(); now.After(windowAt) && st.PendingSteps > run.pending {
					run.pending = st.PendingSteps
				}
				if rec != nil && now.Sub(lastFlush) >= time.Second {
					recMu.Lock()
					fs := time.Now()
					err := rec.Flush()
					fe := time.Now()
					recMu.Unlock()
					lastFlush = fe
					if err != nil {
						offerErr.Store(err)
					}
					if sl != nil {
						sl.add(span{Kind: spanFlush, Start: int64(fs.Sub(sl.t0)), End: int64(fe.Sub(sl.t0)), Parent: -1})
					}
				}
			}
		}
	}()

	run.late = feed(p, in, clients, run.t0, func(c *fieldbus.Client, f *fieldbus.Frame) {
		var ss int64
		if sl != nil {
			ss = sl.now()
		}
		if err := c.Send(f); err != nil {
			offerErr.Store(err)
		}
		if sl != nil {
			sl.add(span{Kind: spanSend, Unit: f.Unit, Frame: f.Type, Seq: uint32(f.Seq), Start: ss, End: sl.now(), Parent: -1})
		}
	}, nil)
	deadline := time.Now().Add(childTimeout)
	for scored.Load() < int64(in.observations()) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(stopTick)
	<-tickDone
	close(detachQ)
	<-detached
	if !p.incident() {
		for u := range in.Units {
			detach(uint8(u))
		}
	}
	st := pi.Stats()
	run.frames, run.deduped, run.paired = frames.Load(), pi.Deduped(), st.Paired
	if err := fl.Close(); err != nil {
		return nil, err
	}
	<-consumed
	if v := offerErr.Load(); v != nil {
		return nil, v.(error)
	}
	if got := scored.Load(); got != int64(in.observations()) {
		return nil, fmt.Errorf("in-process run scored %d of %d observations", got, in.observations())
	}
	return run, nil
}

// pathStats breaks every window observation's traced scored latency —
// from its due time to its SampleScored arriving — into the self times
// of the blocking path through the completing frame (the one whose offer
// completed the pair):
//
//	gen      due → Send of the completing frame starts (lateness, earlier frames)
//	send     Client.Send
//	wait     Send returned → server handler entered (loopback TCP, read, decode)
//	handler  handler self time (record lock, dispatch)
//	record   CaptureStore.Record
//	offer    PairingIngest.OfferFrame (dedup, correlator, fleet enqueue)
//	fleet    OfferFrame returned → SampleScored on Fleet.Events()
//
// The segments tile the interval, so they add up to the latency except
// where one is negative (the handler entered before Send returned); the
// residual is the latency minus the sum of the segments clamped at zero.
type pathStats struct {
	total    []float64 // ms
	segments map[string][]float64
	residual []float64 // ms
}

var pathSegments = []string{"gen", "send", "wait", "handler", "record", "offer", "fleet"}

func blockingPath(p plan, in *inputs, run *pipeRun) (*pathStats, error) {
	spans := run.spans.all()
	// The Send that delivered a frame: the latest Send of that frame
	// started before its handler (exact with one tap; with the redundant
	// tap it picks the copy most recently put on the wire).
	type key struct {
		unit  uint8
		frame fieldbus.FrameType
		seq   uint32
	}
	sends := map[key][]int32{}
	children := map[int32][]int32{}
	for i, s := range spans {
		switch s.Kind {
		case spanSend:
			k := key{s.Unit, s.Frame, s.Seq}
			sends[k] = append(sends[k], int32(i))
		case spanRecord, spanOffer:
			if s.Parent >= 0 {
				children[s.Parent] = append(children[s.Parent], int32(i))
			}
		}
	}
	ps := &pathStats{segments: map[string][]float64{}}
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	ws := in.WindowStart
	for u, st := range in.Units {
		for i := range st.Ctrl {
			if int(in.pos[u][i]) < ws {
				continue
			}
			h := run.complete[u][i]
			at := run.scoredAt[u][i]
			if h < 0 || at == 0 {
				return nil, fmt.Errorf("unit %d observation %d: no completing frame or score traced", u, i)
			}
			hs := spans[h]
			var send *span
			for _, si := range sends[key{hs.Unit, hs.Frame, hs.Seq}] {
				if s := &spans[si]; s.Start <= hs.Start && (send == nil || s.Start > send.Start) {
					send = s
				}
			}
			if send == nil {
				return nil, fmt.Errorf("unit %d observation %d: completing frame has no send span", u, i)
			}
			var rec, off int64
			var offEnd int64
			for _, c := range children[h] {
				switch cs := spans[c]; cs.Kind {
				case spanRecord:
					rec = cs.End - cs.Start
				case spanOffer:
					off = cs.End - cs.Start
					offEnd = cs.End
				}
			}
			due := int64(in.due(p, uint8(u), i))
			seg := map[string]int64{
				"gen":     send.Start - due,
				"send":    send.End - send.Start,
				"wait":    hs.Start - send.End,
				"handler": (hs.End - hs.Start) - rec - off,
				"record":  rec,
				"offer":   off,
				"fleet":   at - offEnd,
			}
			total := at - due
			sum := int64(0)
			for _, name := range pathSegments {
				v := seg[name]
				ps.segments[name] = append(ps.segments[name], ms(v))
				sum += max(v, 0)
			}
			ps.total = append(ps.total, ms(total))
			ps.residual = append(ps.residual, ms(total-sum))
		}
	}
	return ps, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// spanDurations returns the durations (µs) of every span of a kind inside
// the timed window.
func spanDurations(spans []span, kind uint8, from int64) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Kind == kind && s.Start >= from {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// runTrace produces the per-layer metrics: figures read from the live
// child (scrapes, /status, SSE latencies), an untraced and a traced
// in-process pass over the same frames, and single-thread loops over the
// workload's rows.
func runTrace(p plan, in *inputs, sys *core.System, live *liveResult, env *runEnv, led *ledger, log io.Writer) (map[string]metric, error) {
	scratch := env.runDir
	plain, err := inProcess(p, in, sys, false, scratch)
	led.op(err)
	if err != nil {
		return nil, fmt.Errorf("untraced in-process run: %w", err)
	}
	traced, err := inProcess(p, in, sys, true, scratch)
	led.op(err)
	if err != nil {
		return nil, fmt.Errorf("traced in-process run: %w", err)
	}
	path, err := blockingPath(p, in, traced)
	led.op(err)
	if err != nil {
		return nil, err
	}
	if lost := traced.spans.lost.Load(); lost > 0 {
		led.op(fmt.Errorf("%d spans did not fit the span buffer", lost))
	}
	loops, err := layerLoops(p, in, sys, scratch)
	led.op(err)
	if err != nil {
		return nil, err
	}

	windowNs := int64(p.slotDue(in.WindowStart))
	spans := traced.spans.all()
	obs := float64(in.observations())
	untracedScored := windowLatencies(p, in, plain)
	fleetWait := path.segments["fleet"]
	m := map[string]metric{
		"gen.late_p99_ms":          {percentile(live.late, 99), "ms"},
		"fieldbus.send_p99_us":     {percentile(spanDurations(spans, spanSend, windowNs), 99), "us"},
		"fieldbus.handler_wait_us": {percentile(append([]float64(nil), path.segments["wait"]...), 50) * 1e3, "us"},
		"fieldbus.decode_ns":       {loops["decode_ns"], "ns"},
		"fieldbus.record_us":       {zeroNaN(percentile(spanDurations(spans, spanRecord, windowNs), 50)), "us"},
		"fieldbus.store_flush_ms":  {zeroNaN(percentile(spanDurations(spans, spanFlush, 0), 50) / 1e3), "ms"},
		"fieldbus.bytes_per_obs":   {float64(p.framesPerObs() * (4 + fieldbus.EncodedSize(len(in.Units[0].Ctrl[0])))), "B"},
		"fieldbus.chain_next_ns":   {loops["chain_next_ns"], "ns"},
		"pairing.offer_p50_us":     {percentile(spanDurations(spans, spanOffer, windowNs), 50), "us"},
		"pairing.offer_p99_us":     {percentile(spanDurations(spans, spanOffer, windowNs), 99), "us"},
		"pairing.dedup_ratio":      {float64(traced.deduped) / float64(traced.frames), "ratio"},
		"pairing.paired_ratio":     {float64(traced.paired) / obs, "ratio"},
		"pairing.pending_max":      {float64(traced.pending), "count"},
		"fleet.wait_ms":            {percentile(append([]float64(nil), fleetWait...), 50), "ms"},
		"fleet.score_us":           {live.scoreUs, "us"},
		"fleet.batch_occupancy":    {live.batchOcc, "obs"},
		"fleet.mailbox_depth_max":  {live.mailboxMax, "count"},
		"fleet.events_per_obs":     {float64(traced.events) / obs, "ratio"},
		"fleet.detach_ms":          {percentile(spanDurations(spans, spanDetach, 0), 50) / 1e3, "ms"},
		"mspc.compute_ns":          {loops["compute_ns"], "ns"},
		"core.push_ns":             {loops["push_ns"], "ns"},
		"core.finish_ms":           {loops["finish_ms"], "ms"},
		"control.ingest_us":        {loops["ingest_us"], "us"},
		"control.events_published": {live.totals["control_events_published"], "count"},
		"control.events_dropped":   {live.totals["control_events_dropped"], "count"},
		"obs.scrape_ms":            {percentile(append([]float64(nil), live.scrapes...), 50), "ms"},
		"control.drain_ms":         {live.drain * 1000, "ms"},
		"scored_p99_ms":            {percentile(append([]float64(nil), live.scored...), 99), "ms"},
		"peak_rss_mb":              {live.peakRSS, "MB"},
		"alarm_p50_ms":             {zeroNaN(percentile(append([]float64(nil), live.alarms...), 50)), "ms"},
		"alarm_p90_ms":             {zeroNaN(percentile(append([]float64(nil), live.alarms...), 90)), "ms"},
		"verdict_p50_ms":           {zeroNaN(percentile(append([]float64(nil), live.verdicts...), 50)), "ms"},
		"verdict_p90_ms":           {zeroNaN(percentile(append([]float64(nil), live.verdicts...), 90)), "ms"},
		"trace.scored_p50_ms":      {percentile(append([]float64(nil), path.total...), 50), "ms"},
		"trace.untraced_p50_ms":    {percentile(untracedScored, 50), "ms"},
		"trace.residual_ms":        {mean(path.residual), "ms"},
	}
	m["trace.overhead_ms"] = metric{m["trace.scored_p50_ms"].Value - m["trace.untraced_p50_ms"].Value, "ms"}
	for _, name := range pathSegments {
		m["path."+name+"_ms"] = metric{mean(path.segments[name]), "ms"}
	}
	fmt.Fprintf(log, "perfbench: traced scored latency mean %.3f ms = %s + residual %.3f ms\n",
		mean(path.total), describePath(path), mean(path.residual))
	return m, nil
}

func describePath(ps *pathStats) string {
	s := ""
	for i, name := range pathSegments {
		if i > 0 {
			s += " + "
		}
		s += fmt.Sprintf("%s %.3f", name, mean(ps.segments[name]))
	}
	return s
}

// windowLatencies is the in-process scored latency (ms) of every window
// observation.
func windowLatencies(p plan, in *inputs, run *pipeRun) []float64 {
	var out []float64
	for u, st := range in.Units {
		for i := range st.Ctrl {
			if int(in.pos[u][i]) < in.WindowStart || run.scoredAt[u][i] == 0 {
				continue
			}
			out = append(out, float64(run.scoredAt[u][i]-int64(in.due(p, uint8(u), i)))/1e6)
		}
	}
	return out
}

func zeroNaN(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}

// layerLoops times single layers single-threaded over the workload's own
// rows and frames.
func layerLoops(p plan, in *inputs, sys *core.System, scratch string) (map[string]float64, error) {
	out := map[string]float64{}
	mon := sys.Monitor()
	scaled := make([]float64, mon.Model().NVars())
	scores := make([]float64, mon.Model().NComponents())
	var rows [][]float64
	for _, st := range in.Units {
		rows = append(rows, st.Ctrl...)
	}
	out["compute_ns"] = bestOf(3, func() (float64, error) {
		start := time.Now()
		for _, r := range rows {
			if _, err := mon.ComputeInto(r, scaled, scores); err != nil {
				return 0, err
			}
		}
		return float64(time.Since(start).Nanoseconds()) / float64(len(rows)), nil
	})

	var pushNs float64
	var finish []float64
	pushes := 0
	for u, st := range in.Units {
		oa, err := sys.NewOnlineAnalyzer(in.Units[u].Onset, sample)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		for i := range st.Ctrl {
			if _, err := oa.Push(st.Ctrl[i], st.Proc[i]); err != nil {
				return nil, err
			}
		}
		pushNs += float64(time.Since(start).Nanoseconds())
		pushes += len(st.Ctrl)
		start = time.Now()
		if _, err := oa.Finish(); err != nil {
			return nil, err
		}
		finish = append(finish, float64(time.Since(start).Nanoseconds())/1e6)
	}
	out["push_ns"] = pushNs / float64(pushes)
	out["finish_ms"] = percentile(finish, 50)

	wires := make([][]byte, 0, 4096)
	for _, r := range rows[:min(len(rows), 4096)] {
		b, err := (&fieldbus.Frame{Type: fieldbus.FrameSensor, Unit: 1, Seq: 1, Values: r}).Marshal()
		if err != nil {
			return nil, err
		}
		wires = append(wires, b)
	}
	var f fieldbus.Frame
	out["decode_ns"] = bestOf(3, func() (float64, error) {
		start := time.Now()
		for rep := 0; rep < 10; rep++ {
			for _, w := range wires {
				if err := f.UnmarshalInto(w); err != nil {
					return 0, err
				}
			}
		}
		return float64(time.Since(start).Nanoseconds()) / float64(10*len(wires)), nil
	})

	out["chain_next_ns"] = bestOf(3, func() (float64, error) {
		cr, err := fieldbus.OpenCaptureChain(in.ChainBase, fieldbus.ChainOptions{})
		if err != nil {
			return 0, err
		}
		defer func() { _ = cr.Close() }()
		start := time.Now()
		n := 0
		for {
			_, _, err := cr.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				return 0, err
			}
			n++
		}
		return float64(time.Since(start).Nanoseconds()) / float64(max(n, 1)), nil
	})

	ingest, err := planeIngest(p, in, sys, scratch)
	if err != nil {
		return nil, err
	}
	out["ingest_us"] = ingest
	for k, v := range out {
		if math.IsNaN(v) {
			return nil, fmt.Errorf("layer loop %s failed", k)
		}
	}
	return out, nil
}

// bestOf runs fn n times and returns its smallest figure (NaN when a run
// fails).
func bestOf(n int, fn func() (float64, error)) float64 {
	best := math.Inf(1)
	for i := 0; i < n; i++ {
		v, err := fn()
		if err != nil {
			return math.NaN()
		}
		best = math.Min(best, v)
	}
	return best
}

// planeIngest calls control.Plane.Ingest in process for the workload's
// frames, unpaced, and returns the mean µs per call.
func planeIngest(p plan, in *inputs, sys *core.System, scratch string) (float64, error) {
	cfg := serveConfig(p, in, filepath.Join(scratch, "ingest-chain"))
	pl, err := control.New(cfg, control.Options{System: sys})
	if err != nil {
		return 0, err
	}
	n := min(in.observations(), 20000)
	copies := p.framesPerObs() / 2
	start := time.Now()
	calls := 0
	for _, s := range in.Order[:n] {
		for _, f := range in.frames(s, uint64(s.Index)+1) {
			for c := 0; c < copies; c++ {
				if err := pl.Ingest(&f); err != nil {
					_ = pl.Close()
					return 0, err
				}
				calls++
			}
		}
	}
	elapsed := time.Since(start)
	if err := pl.Close(); err != nil {
		return 0, err
	}
	return float64(elapsed.Microseconds()) / float64(calls), nil
}
