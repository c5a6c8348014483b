package main

import (
	"flag"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"pcsmon"
	"pcsmon/internal/control"
	"pcsmon/internal/fieldbus"
)

// runReplay implements the replay subcommand: play a recorded frame
// capture (written by `mspctool fleet -record` or serve's record.path, or
// synthesized by any tool emitting the internal/fieldbus capture format)
// back through a control plane — the same pipeline a live listener feeds
// — at a configurable speed-up.
//
// The clock mapping is the whole trick: the capture's monotonic
// timestamps form a virtual timeline that is (a) compressed by -speed for
// wall-clock pacing and (b) handed to the plane as its clock (pairing
// arrival stamps and age horizon), so -pair-timeout keeps meaning
// *capture time* at any speed-up — a 2s mate-loss horizon in the plant's
// timeline stays a 2s horizon whether the capture replays at 1x or 1000x. With -speed 0 the capture
// replays as fast as the scoring path can drain it (the virtual clock
// still advances by the capture's stamps).
func runReplay(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("mspctool replay", flag.ContinueOnError)
	var (
		calPath     = fs.String("cal", "", "NOC calibration CSV (required)")
		capPath     = fs.String("capture", "", "capture file or segment-chain base to replay (required)")
		speed       = fs.Float64("speed", 0, "replay speed-up factor (1 = real time, 0 = as fast as possible)")
		from        = fs.Duration("from", 0, "replay only records at or after this capture-relative time (segments outside the window are skipped via their index)")
		to          = fs.Duration("to", 0, "replay only records at or before this capture-relative time (0 = to the end)")
		unit        = fs.Int("unit", -1, "replay only this fieldbus unit's frames, 0-255 (segments without the unit are skipped via their index; -1 = every unit)")
		dedup       = fs.Int("dedup", 0, "suppress content-identical frames seen within the last N frames (two-tap captures; 0 = off)")
		sampleSec   = fs.Float64("sample", 4.5, "observation interval of the captured streams [s]")
		onsetHour   = fs.Float64("onset-hour", 0, "hour the anomaly was injected, if known (applies to every plant)")
		components  = fs.Int("components", 0, "PCA components (0 = 90% cumulative variance rule)")
		workers     = fs.Int("workers", 0, "scoring workers (0 = GOMAXPROCS)")
		every       = fs.Int("every", -1, "print chart statistics every N observations per plant (-1 = alarms only)")
		pairWindow  = fs.Int("pair-window", 64, "reorder window for sensor/actuator frame pairing, in sequence numbers")
		pairTimeout = fs.Duration("pair-timeout", 2*time.Second, "flush observations whose mate frame is this late in capture time (0 = never)")
		batch       = fs.Int("batch", 0, "most observations one unit holds while its worker is busy (0 = default 16)")
		metricsAddr = fs.String("metrics", "", "serve the ops endpoints and the control API (/metrics /healthz /status /units /events /debug/pprof/ ...) on this address while the replay runs")
		statsEvery  = fs.Duration("stats-every", 0, "print a live progress line with the fleet/pairing counters on this cadence (0 = off)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// The plane's event pump and the replay loop write concurrently.
	out = &syncWriter{w: out}
	switch {
	case *calPath == "" || *capPath == "":
		fs.Usage()
		return fmt.Errorf("mspctool replay: -cal and -capture are required: %w", pcsmon.ErrBadConfig)
	case *speed < 0:
		return fmt.Errorf("mspctool replay: -speed %g must be >= 0: %w", *speed, pcsmon.ErrBadConfig)
	case *sampleSec <= 0:
		return fmt.Errorf("mspctool replay: -sample %g must be positive: %w", *sampleSec, pcsmon.ErrBadConfig)
	case *onsetHour < 0:
		return fmt.Errorf("mspctool replay: -onset-hour %g must be >= 0: %w", *onsetHour, pcsmon.ErrBadConfig)
	case *components < 0:
		return fmt.Errorf("mspctool replay: -components %d must be >= 0: %w", *components, pcsmon.ErrBadConfig)
	case *workers < 0:
		return fmt.Errorf("mspctool replay: -workers %d must be >= 0: %w", *workers, pcsmon.ErrBadConfig)
	case *pairWindow <= 0:
		return fmt.Errorf("mspctool replay: -pair-window %d must be positive: %w", *pairWindow, pcsmon.ErrBadConfig)
	case *pairTimeout < 0:
		return fmt.Errorf("mspctool replay: -pair-timeout %v must be >= 0: %w", *pairTimeout, pcsmon.ErrBadConfig)
	case *batch < 0:
		return fmt.Errorf("mspctool replay: -batch %d must be >= 0: %w", *batch, pcsmon.ErrBadConfig)
	case *from < 0 || *to < 0:
		return fmt.Errorf("mspctool replay: -from %v / -to %v must be >= 0: %w", *from, *to, pcsmon.ErrBadConfig)
	case *to > 0 && *to < *from:
		return fmt.Errorf("mspctool replay: -to %v is before -from %v: %w", *to, *from, pcsmon.ErrBadConfig)
	case *dedup < 0:
		return fmt.Errorf("mspctool replay: -dedup %d must be >= 0: %w", *dedup, pcsmon.ErrBadConfig)
	case *unit < -1 || *unit > 255:
		return fmt.Errorf("mspctool replay: -unit %d must be a fieldbus unit id (0-255) or -1: %w", *unit, pcsmon.ErrBadConfig)
	case *statsEvery < 0:
		return fmt.Errorf("mspctool replay: -stats-every %v must be >= 0: %w", *statsEvery, pcsmon.ErrBadConfig)
	}
	// A chain reader replays either a single capture file or the rotated
	// segment chain a -record store wrote, as one stream; the -from/-to
	// window seeks via the sealed segments' index sidecars. It opens before
	// the plane so a bad capture fails before calibration.
	copts := fieldbus.ChainOptions{From: *from, To: *to}
	if *unit >= 0 {
		copts.Units = []uint8{uint8(*unit)}
	}
	cr, err := fieldbus.OpenCaptureChain(*capPath, copts)
	if err != nil {
		return fmt.Errorf("mspctool replay: %w", err)
	}
	defer func() { _ = cr.Close() }()

	// The virtual clock: the capture timeline anchored at an arbitrary
	// epoch. The replay loop advances it to each record's stamp; the plane
	// reads it as its arrival clock and leaves ticking to this loop.
	epoch := time.Now()
	var vnow atomic.Int64 // nanoseconds past epoch
	p, err := control.New(&control.Config{
		Calibration:   *calPath,
		SampleSeconds: *sampleSec,
		OnsetHour:     *onsetHour,
		Components:    *components,
		Ops:           control.Ops{Addr: *metricsAddr},
		Pairing: control.Pairing{
			Window:         *pairWindow,
			TimeoutSeconds: orNever(*pairTimeout),
			Dedup:          *dedup,
		},
		Fleet: control.FleetCfg{Workers: *workers, Batch: *batch, EmitEvery: max(*every, 0)},
	}, control.Options{
		Out:     out,
		Clock:   func() time.Time { return epoch.Add(time.Duration(vnow.Load())) },
		OnEvent: chartLines(*every, out),
	})
	if err != nil {
		return err
	}
	defer func() { _ = p.Close() }()
	stopStats := startStatsTicker(*statsEvery, p.Totals, out)
	defer stopStats()

	fmt.Fprintf(out, "replaying %s", *capPath)
	if cr.Segments() > 1 {
		fmt.Fprintf(out, " (%d segments)", cr.Segments())
	}
	if *speed > 0 {
		fmt.Fprintf(out, " at %gx", *speed)
	} else {
		fmt.Fprint(out, " unpaced")
	}
	if *from > 0 || *to > 0 {
		end := "end"
		if *to > 0 {
			end = (*to).String()
		}
		fmt.Fprintf(out, ", window [%v, %s]", *from, end)
	}
	if *unit >= 0 {
		fmt.Fprintf(out, ", unit %s only", pcsmon.PlantID(uint8(*unit)))
	}
	fmt.Fprintln(out)

	wallStart := time.Now()
	var first time.Duration
	started := false
	var span time.Duration
	for {
		ts, f, err := cr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			// Mid-chain damage is real corruption (the chain reader already
			// tolerates the one legitimate form of damage — a truncated tail
			// in an unsealed final segment — by itself; see below).
			return fmt.Errorf("mspctool replay: %w", err)
		}
		if !started {
			first, started = ts, true
		}
		span = ts - first
		// Clock mapping: capture elapsed / speed = wall elapsed.
		if *speed > 0 {
			target := wallStart.Add(time.Duration(float64(span) / *speed))
			if d := time.Until(target); d > 0 {
				time.Sleep(d)
			}
		}
		vnow.Store(int64(ts))
		accepted := p.Accepted()
		if err := p.Ingest(f); err != nil {
			return err
		}
		if p.Accepted() == accepted {
			continue // not an observation frame; skip like the live path
		}
		// Age the pairing horizon at this frame's capture stamp.
		if err := p.Tick(); err != nil {
			return err
		}
	}
	if terr := cr.Truncated(); terr != nil {
		// A recording monitor that died uncleanly (kill, crash, power loss)
		// leaves its unsealed final segment ending mid-record — exactly the
		// post-mortem a replay is for. Score the readable prefix and say so,
		// instead of discarding everything over the tail.
		fmt.Fprintf(out, "warning: %s: %v — replaying the %d readable frames\n",
			*capPath, terr, cr.Delivered())
	}
	if err := p.Drain(); err != nil {
		return err
	}
	wall := time.Since(wallStart)
	totals := p.Totals()
	if err := ingestFailures("mspctool replay", totals); err != nil {
		return err
	}
	printIngestSummary(out, totals, *dedup, "")
	if cr.SegmentsSkipped() > 0 {
		fmt.Fprintf(out, "index seek: %d of %d segments skipped via index\n", cr.SegmentsSkipped(), cr.Segments())
	}
	printPlantReports(out, p.Reports())
	effective := "∞"
	if wall > 0 && span > 0 {
		effective = fmt.Sprintf("%.0f", float64(span)/float64(wall))
	}
	fmt.Fprintf(out, "\nreplay: %d frames, capture span %v in %v (%sx effective), %.0f plants, %.0f observations, %.0f alarms\n",
		cr.Delivered(), span.Round(time.Millisecond), wall.Round(time.Millisecond),
		effective, totals["fleet_attached"], totals["fleet_observations"], totals["fleet_alarms"])
	return nil
}
