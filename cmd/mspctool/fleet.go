package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"strconv"
	"time"

	"pcsmon"
	"pcsmon/internal/control"
	"pcsmon/internal/historian"
)

// runFleet implements the fleet subcommand: one calibrated model scoring
// many interleaved plant streams through a control plane
// (internal/control), the same pipeline `mspctool serve` runs. The flags
// translate into a control.Config; three ingestion modes feed the plane:
//
//   - CSV (default): stdin carries interleaved rows "plant,<53 vars>" —
//     the first column keys the stream, the rest is a single-view
//     observation (used for both views, like watch without -proc), pushed
//     through Plane.Push.
//   - TCP (-listen): the plane accepts length-prefixed fieldbus frames on
//     the given address and pairs them: a sensor frame carries the
//     controller-view row and an actuator frame the process-view row of
//     observation (unit, seq), and the pair is scored as one cross-view
//     observation of plant "unit-<Unit>". Frames may arrive out of order
//     within -pair-window sequence numbers (or -pair-timeout of wall
//     clock); a view that goes silent is scored hold-last-value and
//     reported as DoS-consistent frame loss instead of silently
//     downgrading to single-view monitoring. Sensor-only feeds keep
//     working as single-view streams. The run stops after -max-obs
//     observations (distinct (unit, seq) pairs seen) or -idle without
//     traffic.
//   - UDP (-listen-udp): one frame per datagram on the given address — the
//     genuinely lossy transport. The same pairing turns whatever the
//     network loses, reorders or duplicates into typed accounting; a
//     corrupt datagram is counted and dropped without touching the healthy
//     stream. Both listeners may run at once (two taps, one correlator).
//
// With -record, every frame any listener receives is appended to a durable
// segment chain at the given base: size/time-rotated, index-sealed
// segments with retention pruning (-record-segment-*, -record-keep-*) — a
// flight recorder that runs forever in bounded space and survives SIGKILL
// with at most the last -record-flush cadence of frames lost. An existing
// chain or file at the base is never overwritten. With -dedup N,
// content-identical frames arriving more than once within a sliding
// N-frame window (two redundant collectors tapping the same wire) are
// suppressed before pairing, so the second copy cannot pollute duplicate
// or loss accounting.
//
// Plants attach lazily on first sight; at end of input the plane drains —
// every stream detaches with its classified report — and the command
// prints the reports and the plane's aggregate counters.
func runFleet(args []string, in io.Reader, out io.Writer) error {
	fs := flag.NewFlagSet("mspctool fleet", flag.ContinueOnError)
	var (
		calPath     = fs.String("cal", "", "NOC calibration CSV (required)")
		sampleSec   = fs.Float64("sample", 4.5, "observation interval of the monitored streams [s]")
		onsetHour   = fs.Float64("onset-hour", 0, "hour the anomaly was injected, if known (applies to every plant)")
		components  = fs.Int("components", 0, "PCA components (0 = 90% cumulative variance rule)")
		workers     = fs.Int("workers", 0, "scoring workers (0 = GOMAXPROCS)")
		every       = fs.Int("every", -1, "print chart statistics every N observations per plant (-1 = alarms only)")
		adaptEvery  = fs.Int("adapt-every", 0, "refit the shared model every N in-control observations (0 = frozen model)")
		adaptForget = fs.Float64("adapt-forget", 0, "EWMA forget factor in (0,1] for adaptive refits (0 = default 0.999)")
		listen      = fs.String("listen", "", "accept fieldbus frames on this TCP address instead of reading CSV from stdin")
		listenUDP   = fs.String("listen-udp", "", "accept one fieldbus frame per datagram on this UDP address (lossy transport)")
		record      = fs.String("record", "", "live mode: append every received frame to a segment chain at this base (replay it with mspctool replay)")
		recSegBytes = fs.Int64("record-segment-bytes", 0, "rotate -record segments at this many bytes (0 = 64 MiB)")
		recSegSpan  = fs.Duration("record-segment-span", 0, "rotate -record segments when one covers this much capture time (0 = size only)")
		recKeep     = fs.Int("record-keep", 0, "keep at most this many -record segments, oldest pruned (0 = unlimited)")
		recKeepB    = fs.Int64("record-keep-bytes", 0, "bound the -record chain's total size in bytes, oldest segments pruned (0 = unlimited)")
		recKeepAge  = fs.Duration("record-keep-age", 0, "prune -record segments more than this much capture time behind the newest record (0 = unlimited)")
		recFlush    = fs.Duration("record-flush", time.Second, "crash-durability flush cadence of the -record writer (< 0 = flush only at the end)")
		maxObs      = fs.Int64("max-obs", 0, "live mode: stop after this many observations (0 = rely on -idle)")
		idle        = fs.Duration("idle", 5*time.Second, "live mode: stop after this long without traffic")
		pairWindow  = fs.Int("pair-window", 64, "live mode: reorder window for sensor/actuator frame pairing, in sequence numbers")
		pairTimeout = fs.Duration("pair-timeout", 2*time.Second, "live mode: flush observations whose mate frame is this late (0 = never)")
		dedup       = fs.Int("dedup", 0, "live mode: suppress content-identical frames seen within the last N frames (redundant collectors; 0 = off)")
		batch       = fs.Int("batch", 0, "most observations one unit holds while its worker is busy (0 = default 16)")
		metricsAddr = fs.String("metrics", "", "serve the ops endpoints and the control API (/metrics /healthz /status /units /events /debug/pprof/ ...) on this address while the fleet runs")
		statsEvery  = fs.Duration("stats-every", 0, "print a live progress line with the fleet/pairing counters on this cadence (0 = off)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// The plane's goroutines (event pump, listeners) and the command write
	// concurrently.
	out = &syncWriter{w: out}
	if *calPath == "" {
		fs.Usage()
		return fmt.Errorf("mspctool fleet: -cal is required: %w", pcsmon.ErrBadConfig)
	}
	live := *listen != "" || *listenUDP != ""
	// Validate every flag combination up front (wrapped ErrBadConfig, the
	// scenario-package style) so a bad invocation fails before calibration
	// instead of panicking mid-stream or silently ignoring flags.
	switch {
	case *sampleSec <= 0:
		return fmt.Errorf("mspctool fleet: -sample %g must be positive: %w", *sampleSec, pcsmon.ErrBadConfig)
	case *onsetHour < 0:
		return fmt.Errorf("mspctool fleet: -onset-hour %g must be >= 0: %w", *onsetHour, pcsmon.ErrBadConfig)
	case *components < 0:
		return fmt.Errorf("mspctool fleet: -components %d must be >= 0: %w", *components, pcsmon.ErrBadConfig)
	case *workers < 0:
		return fmt.Errorf("mspctool fleet: -workers %d must be >= 0: %w", *workers, pcsmon.ErrBadConfig)
	case *maxObs < 0:
		return fmt.Errorf("mspctool fleet: -max-obs %d must be >= 0: %w", *maxObs, pcsmon.ErrBadConfig)
	case *idle <= 0:
		return fmt.Errorf("mspctool fleet: -idle %v must be positive: %w", *idle, pcsmon.ErrBadConfig)
	case *pairWindow <= 0:
		return fmt.Errorf("mspctool fleet: -pair-window %d must be positive: %w", *pairWindow, pcsmon.ErrBadConfig)
	case *pairTimeout < 0:
		return fmt.Errorf("mspctool fleet: -pair-timeout %v must be >= 0: %w", *pairTimeout, pcsmon.ErrBadConfig)
	case *batch < 0:
		return fmt.Errorf("mspctool fleet: -batch %d must be >= 0: %w", *batch, pcsmon.ErrBadConfig)
	case *dedup < 0:
		return fmt.Errorf("mspctool fleet: -dedup %d must be >= 0: %w", *dedup, pcsmon.ErrBadConfig)
	case *statsEvery < 0:
		return fmt.Errorf("mspctool fleet: -stats-every %v must be >= 0: %w", *statsEvery, pcsmon.ErrBadConfig)
	case *recSegBytes < 0 || *recSegSpan < 0 || *recKeep < 0 || *recKeepB < 0 || *recKeepAge < 0:
		return fmt.Errorf("mspctool fleet: -record-segment-bytes/-record-segment-span/-record-keep/-record-keep-bytes/-record-keep-age must be >= 0: %w", pcsmon.ErrBadConfig)
	case *record == "" && (*recSegBytes != 0 || *recSegSpan != 0 || *recKeep != 0 || *recKeepB != 0 || *recKeepAge != 0):
		return fmt.Errorf("mspctool fleet: -record-segment-*/-record-keep-* require -record: %w", pcsmon.ErrBadConfig)
	case !live && liveFlagSet(fs):
		return fmt.Errorf("mspctool fleet: -record*/-dedup/-max-obs/-idle/-pair-window/-pair-timeout only apply with -listen/-listen-udp: %w", pcsmon.ErrBadConfig)
	}
	adaptive, err := adaptiveFlags(fs, "mspctool fleet", *adaptEvery, *adaptForget)
	if err != nil {
		return err
	}

	cfg := &control.Config{
		Calibration:   *calPath,
		SampleSeconds: *sampleSec,
		OnsetHour:     *onsetHour,
		Components:    *components,
		Listeners:     control.Listeners{TCP: *listen, UDP: *listenUDP},
		Ops:           control.Ops{Addr: *metricsAddr},
		Pairing: control.Pairing{
			Window:         *pairWindow,
			TimeoutSeconds: orNever(*pairTimeout),
			Dedup:          *dedup,
		},
		Fleet: control.FleetCfg{Workers: *workers, Batch: *batch, EmitEvery: max(*every, 0)},
		Adapt: control.Adapt{Every: adaptive.Every, Forget: adaptive.Forget},
		Record: control.Record{
			Path:               *record,
			SegmentBytes:       *recSegBytes,
			SegmentSpanSeconds: recSegSpan.Seconds(),
			Keep:               *recKeep,
			KeepBytes:          *recKeepB,
			KeepAgeSeconds:     recKeepAge.Seconds(),
			FlushSeconds:       recFlush.Seconds(),
		},
	}
	p, err := control.New(cfg, control.Options{Out: out, OnEvent: chartLines(*every, out)})
	if err != nil {
		return err
	}
	stopStats := startStatsTicker(*statsEvery, p.Totals, out)
	defer stopStats()

	if live {
		awaitLive(p, *maxObs, *idle)
	} else {
		err = demuxFleetCSV(in, p.Push)
	}
	if cerr := p.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	totals := p.Totals()
	if err := ingestFailures("mspctool fleet", totals); err != nil {
		return err
	}
	if live {
		printIngestSummary(out, totals, *dedup, *record)
	}
	printPlantReports(out, p.Reports())
	fmt.Fprintf(out, "\nfleet: %.0f plants, %.0f observations, %.0f alarms, %.0f obs/sec\n",
		totals["fleet_attached"], totals["fleet_observations"], totals["fleet_alarms"], totals["fleet_obs_per_sec"])
	return nil
}

// orNever maps a flag duration where 0 means "never" onto the config's
// seconds convention, where 0 selects the default and negative disables.
func orNever(d time.Duration) float64 {
	if d == 0 {
		return -1
	}
	return d.Seconds()
}

// liveFlagSet reports whether a live-mode-only flag was given explicitly.
func liveFlagSet(fs *flag.FlagSet) bool {
	set := false
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "record", "record-segment-bytes", "record-segment-span", "record-keep",
			"record-keep-bytes", "record-keep-age", "record-flush",
			"max-obs", "idle", "pair-window", "pair-timeout", "dedup":
			set = true
		}
	})
	return set
}

// awaitLive returns once a listening plane has seen maxObs observations
// (when set), has gone idle for the idle duration — counted from startup,
// so a listener nobody connects to also terminates — or has counted an
// ingest or record failure.
func awaitLive(p *control.Plane, maxObs int64, idle time.Duration) {
	last, lastAt := p.Accepted(), time.Now()
	quiet := func() time.Duration {
		if n := p.Accepted(); n != last {
			last, lastAt = n, time.Now()
		}
		return time.Since(lastAt)
	}
	failed := func(t map[string]float64) bool {
		return t["control_ingest_errors"] > 0 || t["control_record_errors"] > 0
	}
	for {
		time.Sleep(10 * time.Millisecond)
		t := p.Totals()
		if failed(t) || quiet() > idle {
			return
		}
		if maxObs > 0 && t["pairing_observations"] >= float64(maxObs) {
			break
		}
	}
	// The cap fires on the first frame of the final observation; give its
	// in-flight mate frame a short quiet period to land before the drain
	// closes the listeners, so the last observation is paired instead of
	// nondeterministically orphaned.
	for grace := time.Now().Add(time.Second); time.Now().Before(grace) && quiet() < 100*time.Millisecond; {
		time.Sleep(10 * time.Millisecond)
		if failed(p.Totals()) {
			return
		}
	}
}

// demuxFleetCSV reads interleaved "plant,<53 vars>" rows and routes each
// to its plant's stream.
func demuxFleetCSV(in io.Reader, feed func(plant string, row []float64) error) error {
	cr := csv.NewReader(in)
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return fmt.Errorf("read header: %w", err)
	}
	if len(header) != historian.NumVars+1 {
		return fmt.Errorf("fleet stream has %d columns, want %d (plant + %d vars)",
			len(header), historian.NumVars+1, historian.NumVars)
	}
	row := make([]float64, historian.NumVars)
	line := 1
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		line++
		plant := rec[0]
		if plant == "" {
			return fmt.Errorf("line %d: empty plant id", line)
		}
		for j, f := range rec[1:] {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return fmt.Errorf("line %d field %d %q: not a number", line, j+2, f)
			}
			row[j] = v
		}
		if err := feed(plant, row); err != nil {
			return err
		}
	}
}
