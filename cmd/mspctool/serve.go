package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"pcsmon"
	"pcsmon/internal/control"
)

// runServe implements the serve subcommand: the long-lived control-plane
// service mode. Where `mspctool fleet -listen` is a batch job with a
// socket (it exits when traffic goes idle), serve runs until told to
// stop, is configured by a validated JSON file instead of flags, and is
// operated over the ops listener's HTTP API: attach/detach/drain units,
// inspect config and per-unit verdicts, stream typed events (SSE), reload
// the reloadable config subset, and drain the whole process.
//
//	mspctool serve -config plant.json
//	mspctool serve -config plant.json -check   # validate and exit
//
// Signals: SIGTERM/SIGINT begin a graceful drain (stop accepting frames,
// score everything already accepted, emit final per-unit reports, seal
// the capture tail, exit 0); SIGHUP re-reads the config file and applies
// the reloadable subset (ops.healthz_stall_seconds, units.*).
func runServe(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("mspctool serve", flag.ContinueOnError)
	var (
		cfgPath = fs.String("config", "", "control-plane config file (JSON, required; see README \"Control plane\")")
		check   = fs.Bool("check", false, "validate the config file and exit without starting anything")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cfgPath == "" {
		fs.Usage()
		return fmt.Errorf("mspctool serve: -config is required: %w", pcsmon.ErrBadConfig)
	}
	cfg, err := control.Load(*cfgPath)
	if err != nil {
		return err
	}
	if *check {
		fmt.Fprintf(out, "config ok: %s\n", describeConfig(cfg))
		return nil
	}
	out = &syncWriter{w: out}

	// Register before the plane comes up: a SIGTERM that lands the moment
	// "control plane up" prints must drain, not kill the process.
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT, syscall.SIGHUP)
	defer signal.Stop(sig)

	p, err := control.New(cfg, control.Options{Out: out, ConfigPath: *cfgPath})
	if err != nil {
		return err
	}
	for running := true; running; {
		select {
		case s := <-sig:
			if s == syscall.SIGHUP {
				if rerr := p.Reload(nil); rerr != nil {
					fmt.Fprintf(out, "reload failed: %v\n", rerr)
				}
				continue
			}
			fmt.Fprintf(out, "%v: draining\n", s)
			running = false
		case <-p.Drained():
			// POST /drain finished the drain already; fall through to Close.
			running = false
		}
	}
	if err := p.Close(); err != nil {
		return err
	}

	reports := p.Reports()
	for _, id := range sortedUnits(reports) {
		rep := reports[id]
		fmt.Fprintf(out, "unit %s: %s\n  %s\n", id, rep.Verdict, rep.Explanation)
	}
	fmt.Fprintf(out, "serve: %d frames accepted, %d units reported\n", p.Accepted(), len(reports))
	return nil
}

// describeConfig renders the -check summary: enough to eyeball that the
// file says what the operator thinks it says.
func describeConfig(cfg *control.Config) string {
	listeners := ""
	if cfg.Listeners.TCP != "" {
		listeners += " tcp=" + cfg.Listeners.TCP
	}
	if cfg.Listeners.UDP != "" {
		listeners += " udp=" + cfg.Listeners.UDP
	}
	s := fmt.Sprintf("cal=%s%s ops=%s sample=%v stall=%v units=%d",
		cfg.Calibration, listeners, cfg.Ops.Addr, cfg.Sample(), cfg.StallHorizon(), len(cfg.Units))
	if cfg.Record.Path != "" {
		s += " record=" + cfg.Record.Path
	}
	if len(cfg.Cluster.Nodes) > 0 {
		s += fmt.Sprintf(" cluster=%s/%d-nodes", cfg.Cluster.Node, len(cfg.Cluster.Nodes))
	}
	return s
}
