package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"pcsmon"
	"pcsmon/internal/control"
	"pcsmon/internal/fieldbus"
)

// authToken gates the plane's mutating API in every generated config.
const authToken = "perfbench"

// liveResult is what the live phase measured.
type liveResult struct {
	setups    []float64 // serve start → ready, seconds at the reference host speed
	setupsRaw []float64 // the same as measured
	scored    []float64 // due → scored SSE event, ms (missing probes at window end)
	alarms    []float64 // due of AlarmRaised.Index → alarm SSE event, ms
	verdicts  []float64 // POST /units/{id}/drain round trip, ms
	drain     float64   // POST /drain round trip, seconds
	late      []float64 // generator lateness per observation, ms
	scrapes   []float64 // GET /metrics round trip, ms
	refSetup  []float64 // reference kernel CPU time around the serve starts, ms
	refWindow []float64 // reference kernel CPU time during the window, ms
	// scoredSlices holds the scored latencies per one-second slice of the
	// window, by due time.
	scoredSlices [][]float64

	missing        int
	windowObs      int
	windowSeconds  float64
	cpuPerObs      float64 // µs of child CPU per window observation
	peakRSS        float64 // MB
	drainReplyLost bool
	hwmBeforeDrain float64 // MB
	liveHeap       float64 // MB
	mailboxMax     float64
	scoreUs        float64
	batchOcc       float64
	totals         map[string]float64
}

// serveConfig is the plane configuration of a workload: defaults except
// scored-event sampling, plus recording, dedup and per-unit onsets for
// the incident workload.
func serveConfig(p plan, in *inputs, record string) *control.Config {
	cfg := &control.Config{
		Calibration:   in.CalPath,
		SampleSeconds: sampleSeconds,
		OnsetHour:     onsetHour(p.Warm),
		Listeners:     control.Listeners{TCP: "127.0.0.1:0"},
		Ops:           control.Ops{Addr: "127.0.0.1:0", AuthToken: authToken, HealthzStallSeconds: -1},
		Fleet:         control.FleetCfg{EmitEvery: p.EmitEvery},
	}
	if p.incident() {
		cfg.Pairing.Dedup = p.Dedup
		cfg.Record = control.Record{Path: record, SegmentBytes: chainSegmentBytes}
		cfg.Units = map[string]control.UnitCfg{}
		for u, st := range in.Units {
			h := onsetHour(st.Onset)
			cfg.Units[strconv.Itoa(u)] = control.UnitCfg{OnsetHour: &h}
		}
	}
	return cfg
}

// onsetHour converts an observation index to the config's onset hours;
// the half-sample offset makes the plane's truncating conversion land on
// exactly that index.
func onsetHour(index int) float64 {
	return (float64(index) + 0.5) * sampleSeconds / 3600
}

// servedPlane is one running serve child and its endpoints.
type servedPlane struct {
	c     *child
	api   *api
	tcp   string
	setup time.Duration
}

// startServe starts `mspctool serve` on a fresh config and waits until it
// can accept frames: the "control plane up" line is printed only after
// calibration and the ingest listeners are bound (the ops listener, and
// so /healthz, comes up before calibration), and /healthz then answers.
func startServe(env *runEnv, cfg *control.Config, name string, led *ledger) (*servedPlane, error) {
	path := filepath.Join(env.runDir, name+".json")
	data, err := json.MarshalIndent(cfg, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return nil, err
	}
	c, err := startChild(env.mspctool, []string{"serve", "-config", path})
	if err != nil {
		return nil, err
	}
	cur := 0
	fail := func(err error) (*servedPlane, error) {
		c.kill()
		return nil, err
	}
	l, err := c.waitLine(&cur, "listening on ", childTimeout)
	if err != nil {
		return fail(err)
	}
	tcp := strings.TrimPrefix(l.text, "listening on ")
	l, err = c.waitLine(&cur, "control plane up: ops ", childTimeout)
	if err != nil {
		return fail(err)
	}
	a := newAPI(strings.TrimPrefix(l.text, "control plane up: ops "), authToken, led)
	deadline := time.Now().Add(childTimeout)
	for {
		if _, err := a.try(http.MethodGet, "/healthz", nil); err == nil {
			break
		}
		if time.Now().After(deadline) {
			return fail(fmt.Errorf("/healthz never answered: %v", err))
		}
		time.Sleep(time.Millisecond)
	}
	led.op(nil)
	return &servedPlane{c: c, api: a, tcp: tcp, setup: time.Since(c.start)}, nil
}

// refPerStart is the number of reference samples taken before and after
// each serve start.
const refPerStart = 20

// childTimeout bounds every wait on a child.
const childTimeout = 60 * time.Second

// stop ends a set-up-only plane with SIGTERM, its graceful drain, and
// waits for a clean exit.
func (sp *servedPlane) stop() error {
	if err := sp.c.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		sp.c.kill()
		return err
	}
	_, err := sp.c.wait(childTimeout)
	return err
}

// sseLog collects the plane's /events feed. The reader only stamps and
// keeps each event; decoding waits until the stream has ended, so a
// busy benchmark process does not fall behind the feed and make the
// plane drop events on its behalf.
type sseLog struct {
	raw  []rawEvent
	done chan struct{}

	// Filled by decode once done is closed.
	scored map[[2]int]time.Time // (unit, index)
	alarms []alarmSeen
}

type rawEvent struct {
	ev sseEvent
	at time.Time
}

type alarmSeen struct {
	unit, index int
	at          time.Time
}

// subscribe opens GET /events and consumes it until the plane closes it.
func subscribe(base string) (*sseLog, io.Closer, error) {
	resp, err := http.Get(base + "/events")
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		_ = resp.Body.Close()
		return nil, nil, fmt.Errorf("GET /events: %s", resp.Status)
	}
	s := &sseLog{done: make(chan struct{})}
	go func() {
		defer close(s.done)
		r := newSSEReader(resp.Body)
		for {
			ev, err := r.Next()
			if err != nil {
				return // the plane closes the stream when it exits
			}
			if ev.Type == "scored" || ev.Type == "alarm" {
				s.raw = append(s.raw, rawEvent{ev, time.Now()})
			}
		}
	}()
	return s, resp.Body, nil
}

// decode parses the kept events; call it after done is closed.
func (s *sseLog) decode() error {
	s.scored = map[[2]int]time.Time{}
	for _, r := range s.raw {
		var env struct {
			Unit string          `json:"unit"`
			Data json.RawMessage `json:"data"`
		}
		if err := json.Unmarshal([]byte(r.ev.Data), &env); err != nil {
			return fmt.Errorf("%s event: %w", r.ev.Type, err)
		}
		unit, err := strconv.Atoi(strings.TrimPrefix(env.Unit, "unit-"))
		if err != nil {
			return fmt.Errorf("%s event unit %q: %w", r.ev.Type, env.Unit, err)
		}
		var d struct{ Index int }
		if err := json.Unmarshal(env.Data, &d); err != nil {
			return fmt.Errorf("%s event: %w", r.ev.Type, err)
		}
		if r.ev.Type == "scored" {
			s.scored[[2]int{unit, d.Index}] = r.at
		} else {
			s.alarms = append(s.alarms, alarmSeen{unit, d.Index, r.at})
		}
	}
	return nil
}

// runLive runs the live phase: set-up starts, then the open-loop feed
// into one serve child, per-unit drains (incident), the conservation and
// verdict checks, and the final drain.
func runLive(p plan, in *inputs, env *runEnv, want []verdict, led *ledger) (*liveResult, error) {
	res := &liveResult{}
	// Each serve start is timed between two runs of reference samples and
	// reported at the reference speed.
	setupAt := func(sp *servedPlane, before []float64) {
		ref := refSamples(before, refPerStart)
		res.setupsRaw = append(res.setupsRaw, sp.setup.Seconds())
		res.setups = append(res.setups, sp.setup.Seconds()*hostFactor(ref))
		res.refSetup = append(res.refSetup, ref...)
	}
	for i := 0; i < p.IdleStarts; i++ {
		before := refSamples(nil, refPerStart)
		cfg := serveConfig(p, in, filepath.Join(env.runDir, fmt.Sprintf("idle%d-chain", i)))
		sp, err := startServe(env, cfg, fmt.Sprintf("idle%d", i), led)
		if err != nil {
			return nil, fmt.Errorf("serve set-up %d: %w", i, err)
		}
		setupAt(sp, before)
		if err := sp.stop(); err != nil {
			return nil, fmt.Errorf("serve set-up %d: %w", i, err)
		}
	}
	before := refSamples(nil, refPerStart)
	sp, err := startServe(env, serveConfig(p, in, filepath.Join(env.runDir, "live-chain")), "live", led)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	defer sp.c.kill()
	setupAt(sp, before)

	events, body, err := subscribe(sp.api.base)
	led.op(err)
	if err != nil {
		return nil, err
	}
	defer func() { _ = body.Close() }()
	var clients [2]*fieldbus.Client
	for i := range clients {
		if clients[i], err = fieldbus.Dial(sp.tcp); err != nil {
			return nil, err
		}
		defer func(c *fieldbus.Client) { _ = c.Close() }(clients[i])
	}

	start := time.Now().Add(20 * time.Millisecond)
	ws := in.WindowStart
	windowAt := start.Add(p.slotDue(ws))

	// The child's CPU time at the window start, read on schedule.
	var cpuStart time.Duration
	var cpuErr error
	cpuRead := make(chan struct{})
	go func() {
		defer close(cpuRead)
		time.Sleep(time.Until(windowAt))
		cpuStart, cpuErr = sp.c.cpu()
	}()

	stopScrape := make(chan struct{})

	// Reference kernel samples for the window's host-speed factor, every
	// 100 ms: about 0.7% of one core.
	refDone := make(chan struct{})
	go func() {
		defer close(refDone)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopScrape:
				return
			case <-tick.C:
				res.refWindow = refSamples(res.refWindow, 1)
			}
		}
	}()

	// Scrapes: a deployed plane is scraped; the round trip and the mailbox
	// depth are per-layer figures.
	scrapeDone := make(chan struct{})
	go func() {
		defer close(scrapeDone)
		tick := time.NewTicker(500 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopScrape:
				return
			case <-tick.C:
				text, rtt, err := sp.api.text("/metrics")
				if err != nil {
					continue
				}
				res.scrapes = append(res.scrapes, float64(rtt)/float64(time.Millisecond))
				if v, ok := promSum(text, "pcsmon_fleet_mailbox_depth"); ok && v > res.mailboxMax {
					res.mailboxMax = v
				}
			}
		}
	}()

	// Per-unit drains of the incident workload: once a unit's last
	// observation is scored, close it over the API; the round trip covers
	// flush, oMEDA and classification.
	drainQ := make(chan uint8, p.Units)
	drained := map[int]verdict{}
	drainDone := make(chan struct{})
	go func() {
		defer close(drainDone)
		for u := range drainQ {
			id := pcsmon.PlantID(u)
			n := len(in.Units[u].Ctrl)
			if err := waitObservations(sp.api, id, n); err != nil {
				led.op(err)
				continue
			}
			var doc struct {
				Verdict     string `json:"verdict"`
				AttackedVar *int   `json:"attacked_var"`
			}
			rtt, err := sp.api.post("/units/"+id+"/drain", &doc)
			if err != nil {
				continue
			}
			res.verdicts = append(res.verdicts, float64(rtt)/float64(time.Millisecond))
			v := verdict{Verdict: doc.Verdict, AttackedVar: -1}
			if doc.AttackedVar != nil {
				v.AttackedVar = *doc.AttackedVar
			}
			drained[int(u)] = v
		}
	}()

	var sent, sendFailed atomic.Int64
	var unitDone func(u uint8)
	if p.incident() {
		unitDone = func(u uint8) { drainQ <- u }
	}
	res.late = feed(p, in, clients, start, func(c *fieldbus.Client, f *fieldbus.Frame) {
		sent.Add(1)
		if err := c.Send(f); err != nil {
			sendFailed.Add(1)
		}
	}, unitDone)
	close(drainQ)
	<-drainDone
	led.failN(sent.Load(), sendFailed.Load(), "frame sends")

	// The window closes when the last observation is scored.
	obs := in.observations()
	doc, err := waitScored(sp.api, obs)
	windowEnd := time.Now()
	cpuEnd, cpuEndErr := sp.c.cpu()
	close(stopScrape)
	<-scrapeDone
	<-refDone
	<-cpuRead
	if err != nil {
		return nil, err
	}
	if cpuErr != nil || cpuEndErr != nil {
		return nil, fmt.Errorf("child CPU: %v %v", cpuErr, cpuEndErr)
	}
	res.totals = doc.Totals
	res.windowObs = obs - ws
	res.windowSeconds = windowEnd.Sub(windowAt).Seconds()
	res.cpuPerObs = float64(cpuEnd-cpuStart) / float64(time.Microsecond) / float64(res.windowObs)
	conserve(led, doc.Totals, sent.Load(), obs)

	// Live heap after a forced collection: the memory the plane retains
	// for the window's traffic, free of the collector's sawtooth.
	heap, err := liveHeap(sp.api)
	led.op(err)
	res.liveHeap = heap

	if text, _, err := sp.api.text("/metrics"); err == nil {
		res.scoreUs = promRatio(text, "pcsmon_fleet_scoring_latency_seconds") * 1e6
		res.batchOcc = promRatio(text, "pcsmon_fleet_batch_occupancy_observations")
	}

	if p.incident() {
		// The drain replies carry the verdicts; GET /units/{id} must agree
		// with the batch reference too.
		units := map[int]verdict{}
		for u := range in.Units {
			var d struct {
				Report *control.UnitReport `json:"report"`
			}
			if _, err := sp.api.get("/units/"+pcsmon.PlantID(uint8(u)), &d); err == nil && d.Report != nil {
				units[u] = verdict{Verdict: d.Report.Verdict, AttackedVar: d.Report.AttackedVar, Explanation: d.Report.Explanation}
			}
		}
		checkVerdicts(led, "GET /units", want, units)
		checkVerdicts(led, "POST /units/{id}/drain", want, drained)
	}

	if hwm, err := sp.c.statusKB("VmHWM"); err == nil {
		res.hwmBeforeDrain = float64(hwm) / (1 << 20)
	}
	// The drain is complete when the plane logs it: its reply can be cut
	// off, because serve closes the ops listener as soon as the drain
	// finishes, racing the handler that writes the reply. A lost reply is
	// recorded; the drain itself is checked through the log line, the exit
	// status and the plane's own summary.
	cur := 0
	sentAt := time.Now()
	_, replyErr := sp.api.try(http.MethodPost, "/drain", nil)
	done, err := sp.c.waitLine(&cur, "drain complete: ", childTimeout)
	led.op(err)
	if err != nil {
		return nil, fmt.Errorf("drain: %w", err)
	}
	res.drain = done.at.Sub(sentAt).Seconds()
	res.drainReplyLost = replyErr != nil
	if hwm, err := sp.c.statusKB("VmHWM"); err == nil {
		res.peakRSS = float64(hwm) / (1 << 20) // the child may already be gone
	}
	_, err = sp.c.wait(childTimeout)
	led.op(err)
	if err != nil {
		return nil, fmt.Errorf("serve exit after drain: %w", err)
	}
	if res.peakRSS == 0 {
		res.peakRSS = res.hwmBeforeDrain
	}
	led.op(drainLine(sp.c.output(), obs))

	select {
	case <-events.done:
	case <-time.After(10 * time.Second):
		return nil, fmt.Errorf("event stream did not end after drain")
	}
	led.op(events.decode())
	if !p.incident() {
		checkVerdicts(led, "serve reports", want, serveReports(sp.c.output()))
	}
	res.missing, res.scored, res.scoredSlices = scoredLatencies(p, in, start, events, windowEnd)
	led.failN(int64(len(res.scored)), int64(res.missing), "scored probes")
	for _, a := range events.alarms {
		if a.unit < len(in.Units) && a.index < len(in.Units[a.unit].Ctrl) {
			due := start.Add(in.due(p, uint8(a.unit), a.index))
			res.alarms = append(res.alarms, float64(a.at.Sub(due))/float64(time.Millisecond))
		}
	}
	return res, nil
}

// waitObservations polls GET /units/{id} until the unit has scored n
// observations.
func waitObservations(a *api, id string, n int) error {
	deadline := time.Now().Add(childTimeout)
	for {
		var d struct {
			Health struct {
				Observations int `json:"observations"`
			} `json:"health"`
		}
		_, err := a.try(http.MethodGet, "/units/"+id, &d)
		if err == nil && d.Health.Observations >= n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s scored %d of %d observations (%v)", id, d.Health.Observations, n, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// statusDoc is the part of GET /status the benchmark reads.
type statusDoc struct {
	Totals map[string]float64 `json:"totals"`
}

// waitScored polls GET /status until obs observations are scored.
func waitScored(a *api, obs int) (*statusDoc, error) {
	deadline := time.Now().Add(childTimeout)
	for {
		var doc statusDoc
		_, err := a.try(http.MethodGet, "/status", &doc)
		if err == nil && int(doc.Totals["fleet_observations"]) >= obs {
			a.led.op(nil)
			return &doc, nil
		}
		if time.Now().After(deadline) {
			err = fmt.Errorf("only %v of %d observations scored (%v)", doc.Totals["fleet_observations"], obs, err)
			a.led.op(err)
			return nil, err
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// conserve checks frame conservation from the /status totals: every frame
// sent is two halves of a paired observation or one of the named drops
// (orphan, duplicate, stale, deduped, dropped after a unit drain, refused
// after the plane drain), and every observation sent was paired and
// scored exactly once. A frame not accounted for is one failure each.
func conserve(led *ledger, t map[string]float64, sent int64, obs int) {
	accounted := int64(2*t["pairing_paired"] + t["pairing_orphans"] + t["pairing_duplicates"] + t["pairing_stale"] +
		t["pairing_deduped"] + t["pairing_quiesced_drops"] + t["control_frames_rejected"])
	diff := sent - accounted
	if diff < 0 {
		diff = -diff
	}
	led.failN(sent, diff, fmt.Sprintf("frame conservation (sent %d, accounted %d)", sent, accounted))
	checks := []struct {
		what      string
		got, want float64
	}{
		{"paired observations", t["pairing_paired"], float64(obs)},
		{"scored observations", t["fleet_observations"], float64(obs)},
		{"orphaned observations", t["pairing_orphans"], 0},
		{"gap observations", t["pairing_gap_seqs"], 0},
	}
	for _, c := range checks {
		var err error
		if c.got != c.want {
			err = fmt.Errorf("%s: %v, want %v", c.what, c.got, c.want)
		}
		led.op(err)
	}
}

// serveReports parses the final per-unit reports serve prints after its
// drain — "unit unit-007: integrity-attack" followed by the indented
// explanation — which outlive the ops listener that closes on exit.
func serveReports(out []string) map[int]verdict {
	got := map[int]verdict{}
	for i := 0; i+1 < len(out); i++ {
		rest, ok := strings.CutPrefix(out[i], "unit unit-")
		if !ok || strings.Contains(rest, " after ") || !strings.HasPrefix(out[i+1], "  ") {
			continue
		}
		id, v, ok := strings.Cut(rest, ": ")
		unit, err := strconv.Atoi(id)
		if !ok || err != nil {
			continue
		}
		got[unit] = verdict{Verdict: v, AttackedVar: unknownVar, Explanation: strings.TrimPrefix(out[i+1], "  ")}
	}
	return got
}

// drainLine checks the plane's own drain summary: every observation sent
// was paired by the time the drain completed.
func drainLine(out []string, obs int) error {
	for _, l := range out {
		if rest, ok := strings.CutPrefix(l, "drain complete: "); ok {
			var accepted, paired, refused int
			if _, err := fmt.Sscanf(rest, "%d frames accepted, %d paired, %d refused", &accepted, &paired, &refused); err != nil {
				return fmt.Errorf("drain summary %q: %w", l, err)
			}
			if paired != obs {
				return fmt.Errorf("drain summary: %d paired, want %d", paired, obs)
			}
			return nil
		}
	}
	return fmt.Errorf("no drain summary in serve output")
}

// liveHeap forces a collection in the child through its pprof endpoint
// and returns the heap still allocated (runtime.MemStats.HeapAlloc), MB.
func liveHeap(a *api) (float64, error) {
	text, _, err := a.text("/debug/pprof/heap?gc=1&debug=1")
	if err != nil {
		return 0, err
	}
	for _, l := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(l, "# HeapAlloc = "); ok {
			n, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			return n / (1 << 20), err
		}
	}
	return 0, fmt.Errorf("no HeapAlloc in the heap profile")
}

// promRatio is a histogram's mean: _sum over _count.
func promRatio(text, name string) float64 {
	sum, ok1 := promSum(text, name+"_sum")
	n, ok2 := promSum(text, name+"_count")
	if !ok1 || !ok2 || n == 0 {
		return 0
	}
	return sum / n
}

// scoredLatencies matches every expected probe — each unit's window
// observations whose index is a multiple of EmitEvery — with its scored
// event. A probe that never arrived counts as arriving at the end of the
// window, so it misses any latency limit. The latencies are also returned
// grouped by the one-second slice of the window their due time falls in.
func scoredLatencies(p plan, in *inputs, start time.Time, events *sseLog, end time.Time) (missing int, lat []float64, slices [][]float64) {
	windowDue := p.slotDue(in.WindowStart)
	for u, st := range in.Units {
		for i := 0; i < len(st.Ctrl); i += p.EmitEvery {
			k := int(in.pos[u][i])
			if k < in.WindowStart {
				continue
			}
			at, ok := events.scored[[2]int{u, i}]
			if !ok {
				missing++
				at = end
			}
			ms := float64(at.Sub(start.Add(p.slotDue(k)))) / float64(time.Millisecond)
			lat = append(lat, ms)
			sl := int((p.slotDue(k) - windowDue) / time.Second)
			for len(slices) <= sl {
				slices = append(slices, nil)
			}
			slices[sl] = append(slices[sl], ms)
		}
	}
	return missing, lat, slices
}
