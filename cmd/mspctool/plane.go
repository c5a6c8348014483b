package main

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"pcsmon"
	"pcsmon/internal/control"
	"pcsmon/internal/historian"
)

// Helpers shared by the commands that run a control.Plane (fleet, replay,
// serve): output serialization, the live progress line and the exit
// summaries, all rendered from the plane's /status totals and reports.

// syncWriter serializes writes to the command's output: the plane's event
// pump, its listener goroutines and the command itself write
// concurrently, and the caller's writer need not be thread-safe.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// chartLines returns the plane's OnEvent hook that prints the -every
// per-observation chart statistics, or nil when -every asks for none.
func chartLines(every int, out io.Writer) func(control.Event) {
	if every <= 0 {
		return nil
	}
	return func(ev control.Event) {
		if s, ok := ev.Data.(pcsmon.SampleScored); ok {
			fmt.Fprintf(out, "[%s] obs %6d  ctrl D=%8.2f Q=%8.2f\n", ev.Unit, s.Index, s.CtrlD, s.CtrlQ)
		}
	}
}

// startStatsTicker prints a progress line from the plane's totals every
// interval — the -stats-every fix for the "counters only visible at exit"
// staleness. Returns a stop function; a zero interval is a no-op.
func startStatsTicker(interval time.Duration, totals func() map[string]float64, out io.Writer) func() {
	if interval <= 0 {
		return func() {}
	}
	quit := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				t := totals()
				fmt.Fprintf(out, "stats: %.0f active, %.0f obs, %.0f alarms, %.0f obs/sec, pairing %.0f frames (loss %.2f%%)\n",
					t["fleet_active_streams"], t["fleet_observations"], t["fleet_alarms"], t["fleet_obs_per_sec"],
					t["pairing_frames"], 100*t["pairing_loss_ratio"])
			}
		}
	}()
	return func() { close(quit); wg.Wait() }
}

// ingestFailures turns the plane's failure counters into the command's
// exit status: a frame the pipeline failed to record or ingest fails the
// run, even though the plane itself kept going.
func ingestFailures(cmd string, t map[string]float64) error {
	ingest, record := t["control_ingest_errors"], t["control_record_errors"]
	if ingest == 0 && record == 0 {
		return nil
	}
	return fmt.Errorf("%s: %.0f ingest and %.0f record errors (logged above)", cmd, ingest, record)
}

// printIngestSummary renders the end-of-run transport accounting: the
// pairing line, then dedup (when on), UDP (when it listened) and the
// recording (when record names its base).
func printIngestSummary(out io.Writer, t map[string]float64, dedup int, record string) {
	fmt.Fprintf(out, "pairing: %.0f frames -> %.0f paired, %.0f orphaned (%.0f sensor / %.0f actuator), %.0f gap obs, %.0f dup, %.0f stale, %.0f outlier, %.0f view stalls (loss rate %.2f%%)\n",
		t["pairing_frames"], t["pairing_paired"], t["pairing_orphans"], t["pairing_orphan_sensors"], t["pairing_orphan_actuators"],
		t["pairing_gap_seqs"], t["pairing_duplicates"], t["pairing_stale"], t["pairing_outliers"], t["pairing_stalls"],
		100*t["pairing_loss_ratio"])
	if dedup > 0 {
		fmt.Fprintf(out, "dedup: %.0f redundant frames suppressed (window %d)\n", t["pairing_deduped"], dedup)
	}
	if n, ok := t["transport_udp_datagrams"]; ok {
		fmt.Fprintf(out, "udp: %.0f datagrams received, %.0f corrupt dropped\n", n, t["transport_udp_corrupt"])
	}
	if record != "" {
		span := time.Duration(t["capture_span_seconds"] * float64(time.Second)).Round(time.Millisecond)
		fmt.Fprintf(out, "recorded %.0f frames (%v span) to %s (%.0f segments, %.0f pruned)\n",
			t["capture_frames"], span, record, t["capture_store_segments"], t["capture_store_pruned"])
	}
}

// sortedUnits returns the report table's unit ids in order.
func sortedUnits(reports map[string]control.UnitReport) []string {
	ids := make([]string, 0, len(reports))
	for id := range reports {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// printPlantReports summarizes every drained plant's classified report.
func printPlantReports(out io.Writer, reports map[string]control.UnitReport) {
	fmt.Fprintln(out)
	for _, id := range sortedUnits(reports) {
		rep := reports[id]
		fmt.Fprintf(out, "plant %s: %s after %d observations", id, rep.Verdict, rep.Samples)
		if rep.AttackedVar >= 0 {
			fmt.Fprintf(out, " (channel %s)", historian.VarName(rep.AttackedVar))
		}
		fmt.Fprintf(out, "\n  %s\n", rep.Explanation)
	}
}
