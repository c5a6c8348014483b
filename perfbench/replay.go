package main

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"pcsmon/internal/historian"
)

// replayResult is what the forensic phase measured.
type replayResult struct {
	setups     []float64 // replay start → calibration done, seconds
	throughput []float64 // observations per second, default GOMAXPROCS
	oneCore    []float64 // the same at GOMAXPROCS=1
	cpuPerObs  []float64 // µs, default GOMAXPROCS
}

// runReplay replays the workload's capture chain with `mspctool replay
// -speed 0`, alternating the default GOMAXPROCS and GOMAXPROCS=1, and
// checks every pass's observation count and per-unit verdicts.
func runReplay(p plan, in *inputs, env *runEnv, want []verdict, led *ledger) (*replayResult, error) {
	res := &replayResult{}
	args := []string{"replay",
		"-cal", in.CalPath,
		"-capture", in.ChainBase,
		"-sample", strconv.FormatFloat(sampleSeconds, 'g', -1, 64),
		"-onset-hour", strconv.FormatFloat(onsetHour(in.ReplayOnset), 'g', -1, 64),
		"-speed", "0",
	}
	if p.incident() {
		args = append(args, "-dedup", strconv.Itoa(p.Dedup))
	}
	// Alternate the two settings so slow drifts of the host hit both.
	for pass := 0; pass < 2*p.ReplayPasses; pass++ {
		oneCore := pass%2 == 1
		var extra []string
		if oneCore {
			extra = append(extra, "GOMAXPROCS=1")
		}
		c, err := startChild(env.mspctool, args, extra...)
		if err != nil {
			return nil, err
		}
		obsPerSec, cpuPerObs, setup, err := replayPass(c, in, want, led)
		c.kill()
		led.op(err)
		if err != nil {
			return nil, fmt.Errorf("replay pass %d: %w", pass, err)
		}
		res.setups = append(res.setups, setup)
		if oneCore {
			res.oneCore = append(res.oneCore, obsPerSec)
		} else {
			res.throughput = append(res.throughput, obsPerSec)
			res.cpuPerObs = append(res.cpuPerObs, cpuPerObs)
		}
	}
	return res, nil
}

// replayPass times one replay child: set-up ends when it prints the
// "replaying" line (calibrated, chain open); the timed window runs from
// there to its closing "replay:" summary.
func replayPass(c *child, in *inputs, want []verdict, led *ledger) (obsPerSec, cpuPerObs, setup float64, err error) {
	cur := 0
	ready, err := c.waitLine(&cur, "replaying ", childTimeout)
	if err != nil {
		return 0, 0, 0, err
	}
	cpu0, err := c.cpu()
	if err != nil {
		return 0, 0, 0, err
	}
	done, err := c.waitLine(&cur, "replay: ", childTimeout)
	if err != nil {
		return 0, 0, 0, err
	}
	cpu1, err := c.wait(childTimeout)
	if err != nil {
		return 0, 0, 0, err
	}
	var frames, plants, obs int
	if _, err := fmt.Sscanf(done.text, "replay: %d frames", &frames); err != nil {
		return 0, 0, 0, fmt.Errorf("summary %q: %w", done.text, err)
	}
	i := strings.Index(done.text, " plants, ")
	if i < 0 {
		return 0, 0, 0, fmt.Errorf("summary %q: no observation count", done.text)
	}
	if _, err := fmt.Sscanf(done.text[strings.LastIndex(done.text[:i], " ")+1:], "%d plants, %d observations", &plants, &obs); err != nil {
		return 0, 0, 0, fmt.Errorf("summary %q: %w", done.text, err)
	}
	if uint64(frames) != in.ChainFrames || obs != chainRepeats*in.observations() {
		return 0, 0, 0, fmt.Errorf("replayed %d frames / %d observations, chain holds %d / %d",
			frames, obs, in.ChainFrames, chainRepeats*in.observations())
	}
	checkVerdicts(led, "replay", want, replayVerdicts(c.output(), in))
	window := done.at.Sub(ready.at).Seconds()
	return float64(obs) / window, float64(cpu1-cpu0) / float64(time.Microsecond) / float64(obs),
		ready.at.Sub(c.start).Seconds(), nil
}

// replayVerdicts parses the per-plant report lines
//
//	plant unit-007: integrity-attack after 512 observations (channel XMV(3))
//	  <explanation>
//
// keeping only reports whose observation count matches the unit's stream.
func replayVerdicts(out []string, in *inputs) map[int]verdict {
	names := map[string]int{}
	for j := 0; j < historian.NumVars; j++ {
		names[historian.VarName(j)] = j
	}
	got := map[int]verdict{}
	for i, l := range out {
		rest, ok := strings.CutPrefix(l, "plant unit-")
		if !ok {
			continue
		}
		var unit, n int
		var v string
		if _, err := fmt.Sscanf(rest, "%d: %s after %d observations", &unit, &v, &n); err != nil {
			continue
		}
		if unit < 0 || unit >= len(in.Units) || n != chainRepeats*len(in.Units[unit].Ctrl) {
			continue
		}
		vd := verdict{Verdict: v, AttackedVar: -1}
		if i+1 < len(out) {
			vd.Explanation = strings.TrimPrefix(out[i+1], "  ")
		}
		if _, ch, ok := strings.Cut(rest, "(channel "); ok {
			j, known := names[strings.TrimSuffix(ch, ")")]
			if !known {
				continue
			}
			vd.AttackedVar = j
		}
		got[unit] = vd
	}
	return got
}
