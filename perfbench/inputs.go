package main

import (
	"encoding/gob"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"pcsmon/internal/core"
	"pcsmon/internal/dataset"
	"pcsmon/internal/fieldbus"
	"pcsmon/internal/historian"
	"pcsmon/internal/plant"
	"pcsmon/internal/scenario"
)

// Plant geometry shared by the generator and the program under test: the
// simulator steps every 4.5 s and the historian keeps every second step,
// so one observation covers sampleSeconds of plant time.
const (
	stepSeconds   = 4.5
	decimate      = 2
	sampleSeconds = stepSeconds * decimate
	// calRuns NOC runs of calHours each form the calibration CSV.
	calRuns  = 3
	calHours = 8.0
	// keepInputs bounds the input cache: older seeds are evicted.
	keepInputs = 4
	// chainRepeats is how many times the capture chain holds the
	// workload's traffic, each repeat continuing every unit's sequence
	// numbers and the capture timeline: longer replay passes average out
	// more of a shared host's noise.
	chainRepeats = 2
)

// sample is the observation interval as a duration.
var sample = time.Duration(sampleSeconds * float64(time.Second))

// incidentCases are the paper's §V cases, rotated across units of the
// incident workload (keys of scenario.PaperScenarios).
var incidentCases = []string{"idv6", "xmv3-integrity", "xmeas1-integrity", "xmv3-dos"}

// unitStream is one unit's two-view traffic: row i is observation i,
// sent as sequence number i+1.
type unitStream struct {
	Case  string
	Onset int // declared anomaly onset (observation index) for the live phase
	Ctrl  [][]float64
	Proc  [][]float64
}

// slot is one observation in the global send order.
type slot struct {
	Unit  uint8
	Index int32
}

// inputs is everything a run sends and checks against, generated from the
// seed and kept in the input cache.
type inputs struct {
	CalPath   string
	ChainBase string
	Units     []unitStream
	// Order is the global open-loop send order; slot k is due at k/Rate.
	Order []slot
	// pos[u][i] is the position of unit u's observation i in Order.
	pos [][]int32
	// WindowStart is the first slot of the timed window: every unit has
	// sent its warm-up observations before it.
	WindowStart int
	// ReplayOnset is the one onset index the replay child is given.
	ReplayOnset int
	// ChainFrames counts the records of the capture chain.
	ChainFrames uint64
}

// due returns unit u's observation i offset from the schedule start.
func (in *inputs) due(p plan, u uint8, i int) time.Duration {
	return p.slotDue(int(in.pos[u][i]))
}

// frames returns the sensor frame (controller-view row) and the actuator
// frame (process-view row) of slot s under sequence number seq.
func (in *inputs) frames(s slot, seq uint64) [2]fieldbus.Frame {
	u := in.Units[s.Unit]
	return [2]fieldbus.Frame{
		{Type: fieldbus.FrameSensor, Unit: s.Unit, Seq: seq, Values: u.Ctrl[s.Index]},
		{Type: fieldbus.FrameActuator, Unit: s.Unit, Seq: seq, Values: u.Proc[s.Index]},
	}
}

// observations returns the total observation count.
func (in *inputs) observations() int { return len(in.Order) }

// cacheKey names an input-cache entry: everything the generated inputs
// depend on.
func (p plan) cacheKey() string {
	return fmt.Sprintf("v2-%s-s%d-u%d-r%g-w%d-m%d-e%d", p.Workload, p.Seed, p.Units, p.Rate,
		p.Window.Milliseconds(), p.Warm, p.EmitEvery)
}

// loadInputs returns the inputs of p from the cache under work, generating
// and caching them first when absent. The generation runs before any
// child starts, outside every timed window.
func loadInputs(p plan, work string) (*inputs, error) {
	dir := filepath.Join(work, "inputs", p.cacheKey())
	in := &inputs{
		CalPath:   filepath.Join(dir, "cal.csv"),
		ChainBase: filepath.Join(dir, "chain"),
	}
	marker := filepath.Join(dir, "complete")
	if _, err := os.Stat(marker); err != nil {
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		if err := generate(p, in); err != nil {
			return nil, fmt.Errorf("generate inputs: %w", err)
		}
		if err := writeGob(filepath.Join(dir, "units.gob"), in.Units); err != nil {
			return nil, err
		}
		in.finish(p)
		if err := writeChain(p, in); err != nil {
			return nil, fmt.Errorf("write capture chain: %w", err)
		}
		if err := os.WriteFile(marker, nil, 0o644); err != nil {
			return nil, err
		}
		evictInputs(filepath.Join(work, "inputs"), dir)
		return in, nil
	}
	if err := readGob(filepath.Join(dir, "units.gob"), &in.Units); err != nil {
		return nil, err
	}
	in.finish(p)
	in.ChainFrames = uint64(chainRepeats * in.observations() * p.framesPerObs())
	now := time.Now()
	_ = os.Chtimes(marker, now, now) // recency for eviction only
	return in, nil
}

// finish derives the send order and its index from the unit streams.
func (in *inputs) finish(p plan) {
	lens := make([]int, len(in.Units))
	for u, s := range in.Units {
		lens[u] = len(s.Ctrl)
	}
	in.Order = buildOrder(lens, p.EmitEvery)
	in.pos = make([][]int32, len(lens))
	for u, n := range lens {
		in.pos[u] = make([]int32, n)
	}
	for k, s := range in.Order {
		in.pos[s.Unit][s.Index] = int32(k)
	}
	in.WindowStart = 0
	for u := range in.pos {
		in.WindowStart = max(in.WindowStart, int(in.pos[u][p.Warm-1])+1)
	}
	in.ReplayOnset = p.Warm
}

// buildOrder interleaves the unit streams round-robin, unit u joining u
// mod stagger rounds late: the plane samples scored events at indexes
// that are multiples of the emit interval, and staggered starts spread
// those samples evenly instead of bunching one per unit into the same
// round. Streams of different length end at different times.
func buildOrder(lens []int, stagger int) []slot {
	total := 0
	for _, n := range lens {
		total += n
	}
	order := make([]slot, 0, total)
	for r := 0; len(order) < total; r++ {
		for u, n := range lens {
			if i := r - u%stagger; i >= 0 && i < n {
				order = append(order, slot{Unit: uint8(u), Index: int32(i)})
			}
		}
	}
	return order
}

// generate simulates the calibration campaign and every unit's stream with
// the repository's Tennessee-Eastman plant and attack models.
func generate(p plan, in *inputs) error {
	tmpl, err := plant.NewTemplate(plant.Config{StepSeconds: stepSeconds, WarmupHours: 60})
	if err != nil {
		return err
	}
	cal, err := dataset.New(historian.VarNames())
	if err != nil {
		return err
	}
	for i := 0; i < calRuns; i++ {
		run, err := tmpl.NewRun(plant.RunConfig{Seed: p.Seed*7919 + int64(i), Decimate: decimate})
		if err != nil {
			return err
		}
		if ok, err := run.RunHours(calHours); err != nil || !ok {
			return fmt.Errorf("calibration run %d tripped: %v", i, err)
		}
		d := run.Views().Process.Data()
		for r := 0; r < d.Rows(); r++ {
			if err := cal.Append(d.RowView(r)); err != nil {
				return err
			}
		}
	}
	if err := writeCSV(in.CalPath, cal); err != nil {
		return err
	}
	sys, err := loadSystem(in.CalPath)
	if err != nil {
		return err
	}

	rng := rand.New(rand.NewSource(p.Seed))
	avg := max(int(p.Rate*p.Window.Seconds())/p.Units, 1)
	ranks := rng.Perm(p.Units)
	in.Units = make([]unitStream, p.Units)
	for u := range in.Units {
		st := unitStream{Case: "noc", Onset: p.Warm}
		post := avg
		var sc scenario.Scenario
		if p.incident() {
			// Stream lengths spread over [avg/2, 3avg/2] so units end (and
			// are drained) across the whole window; the onset lands where
			// the alarm and the 20-observation diagnosis window still fit.
			post = avg/2 + avg*ranks[u]/max(p.Units-1, 1)
			st.Case = incidentCases[u%len(incidentCases)]
			room := max(post-incidentTail, 1)
			st.Onset = p.Warm + int(float64(room)*(0.1+0.7*rng.Float64()))
			for _, c := range scenario.PaperScenarios(float64(st.Onset) * sampleSeconds / 3600) {
				if c.Key == st.Case {
					sc = c
				}
			}
		} else {
			sc = scenario.Scenario{Key: "noc", Name: "normal operation", AttackedVar: -1}
		}
		n := p.Warm + post
		exp := &scenario.Experiment{
			Template: tmpl,
			System:   sys,
			Hours:    float64(n+4) * sampleSeconds / 3600,
			Decimate: decimate,
		}
		_, err := exp.Feed(sc, p.Seed*100003+int64(u), func(_ int, ctrl, proc []float64) error {
			if len(st.Ctrl) == n {
				return errEnough
			}
			st.Ctrl = append(st.Ctrl, append([]float64(nil), ctrl...))
			st.Proc = append(st.Proc, append([]float64(nil), proc...))
			return nil
		})
		if err != nil && !errors.Is(err, errEnough) {
			return fmt.Errorf("unit %d (%s): %w", u, st.Case, err)
		}
		if len(st.Ctrl) <= p.Warm {
			return fmt.Errorf("unit %d (%s): plant tripped after %d observations", u, st.Case, len(st.Ctrl))
		}
		in.Units[u] = st
	}
	return nil
}

// incidentTail is the number of observations an incident stream keeps
// after its onset at the least: detection takes a few samples and the
// diagnosis window twenty more.
const incidentTail = 60

var errEnough = errors.New("stream long enough")

// writeChain records the workload's traffic chainRepeats times into a
// rotated, indexed capture chain through the program's own store, stamped
// with each observation's due time — what a recorder on the wire would
// have kept. Repeat r continues every unit's sequence numbers after its
// last observation and the timeline after the schedule's end.
func writeChain(p plan, in *inputs) error {
	st, err := fieldbus.OpenCaptureStore(in.ChainBase, fieldbus.StoreOptions{
		SegmentBytes: chainSegmentBytes,
		FlushEvery:   -1,
	})
	if err != nil {
		return err
	}
	copies := 1
	if p.incident() {
		copies = 2
	}
	span := p.slotDue(in.observations())
	for r := 0; r < chainRepeats; r++ {
		for k, s := range in.Order {
			at := time.Duration(r)*span + p.slotDue(k)
			seq := uint64(r*len(in.Units[s.Unit].Ctrl)) + uint64(s.Index) + 1
			for _, f := range in.frames(s, seq) {
				for c := 0; c < copies; c++ {
					if err := st.WriteAt(&f, at); err != nil {
						st.Abandon()
						return err
					}
				}
			}
		}
	}
	in.ChainFrames = st.Frames()
	return st.Close()
}

// chainSegmentBytes rotates the set-up chain into a dozen or more segments.
const chainSegmentBytes = 8 << 20

// evictInputs removes the oldest cache entries beyond keepInputs, never
// the one in use.
func evictInputs(root, current string) {
	entries, err := os.ReadDir(root)
	if err != nil {
		return
	}
	type entry struct {
		path string
		mod  time.Time
	}
	var es []entry
	for _, e := range entries {
		path := filepath.Join(root, e.Name())
		if path == current {
			continue
		}
		mod := time.Time{}
		if fi, err := os.Stat(filepath.Join(path, "complete")); err == nil {
			mod = fi.ModTime()
		}
		es = append(es, entry{path, mod})
	}
	sort.Slice(es, func(i, j int) bool { return es[i].mod.After(es[j].mod) })
	for i := keepInputs - 1; i < len(es); i++ {
		_ = os.RemoveAll(es[i].path)
	}
}

func writeCSV(path string, d *dataset.Dataset) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := d.WriteCSV(f); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// loadSystem calibrates exactly as the program under test does: from the
// CSV file, parsed back, with the default configuration.
func loadSystem(path string) (*core.System, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() { _ = f.Close() }()
	d, err := dataset.ReadCSV(f)
	if err != nil {
		return nil, err
	}
	return core.Calibrate(d, core.Config{})
}

func writeGob(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := gob.NewEncoder(f).Encode(v); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

func readGob(path string, v any) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer func() { _ = f.Close() }()
	return gob.NewDecoder(f).Decode(v)
}
