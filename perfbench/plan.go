package main

import (
	"fmt"
	"time"

	"pcsmon"
)

// Workloads. Every run of either one has a live phase (mspctool serve fed
// over loopback TCP by the open-loop generator) and a forensic phase
// (mspctool replay of the same traffic from a rotated capture chain, at
// the default GOMAXPROCS and at GOMAXPROCS=1), so that every end-to-end
// metric is measured on every workload.
const (
	// noc-steady: normal operation on every unit, serve defaults (no
	// recording, no dedup). Stresses fieldbus receive/decode, in-order
	// pairing, fleet batching and mspc scoring; alarms, core diagnosis and
	// the capture store stay almost idle.
	wlNOC = "noc-steady"
	// incident-recorded: every unit runs one of the paper's §V cases with a
	// staggered onset, the flight recorder is on, a redundant second tap
	// resends every frame and pairing dedup is on; each unit is drained
	// over the API when its stream ends.
	wlIncident = "incident-recorded"
)

// plan is one run's complete parameter set. Defaults come from
// defaultPlan; tests shrink it.
type plan struct {
	Workload string
	Seed     int64
	Trace    bool

	// Units is the number of fieldbus units (plants) streaming at once.
	Units int
	// Rate is the offered load in observations per second, fixed well
	// below the plane's capacity on a 2-core host.
	Rate float64
	// Window is the timed window of the live phase.
	Window time.Duration
	// Warm is the number of observations every unit sends before the
	// window: more than the pairing reorder window (64), so each unit's
	// correlator has made its first emission and pairs drain instantly.
	Warm int
	// EmitEvery samples one scored event per this many observations per
	// unit onto the SSE feed (fleet.emit_every): the scored-latency probes.
	EmitEvery int
	// IdleStarts is the number of extra serve starts per run that only
	// measure set-up time; setup_s is the median over them and the live
	// start.
	IdleStarts int
	// ReplayPasses is the number of forensic replays at the default
	// GOMAXPROCS and, alternating with them, at GOMAXPROCS=1.
	ReplayPasses int
	// ScoredLimit is the latency limit on scored_p99_ms.
	ScoredLimit time.Duration
	// Dedup is the pairing dedup window of the incident workload, in
	// frames: wide enough (160 ms of its traffic) that a redundant copy on
	// the other connection still finds its original when the host stalls
	// one connection's reader, so copies are suppressed instead of
	// surfacing as duplicate frames.
	Dedup int
}

// defaultPlan returns the benchmark's fixed sizing for a workload.
func defaultPlan(workload string, seed int64, seconds int, trace bool) plan {
	return plan{
		Workload:     workload,
		Seed:         seed,
		Trace:        trace,
		Units:        128,
		Rate:         6400,
		Window:       time.Duration(seconds) * time.Second,
		Warm:         72,
		EmitEvery:    16,
		IdleStarts:   8,
		ReplayPasses: 6,
		ScoredLimit:  50 * time.Millisecond,
		Dedup:        4096,
	}
}

func (p plan) incident() bool { return p.Workload == wlIncident }

// framesPerObs is the number of frames the generator sends per
// observation: a sensor and an actuator frame, twice with the redundant
// tap.
func (p plan) framesPerObs() int {
	if p.incident() {
		return 4
	}
	return 2
}

// slotDue is the schedule offset of global slot k.
func (p plan) slotDue(k int) time.Duration {
	return time.Duration(float64(k) / p.Rate * float64(time.Second))
}

// validate rejects an unknown workload name, the one plan field taken
// from the command line besides the seed, seconds and trace, which
// realMain checks.
func (p plan) validate() error {
	if p.Workload != wlNOC && p.Workload != wlIncident {
		return fmt.Errorf("unknown workload %q (want %s or %s): %w", p.Workload, wlNOC, wlIncident, pcsmon.ErrBadConfig)
	}
	return nil
}
