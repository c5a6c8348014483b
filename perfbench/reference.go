package main

import (
	"fmt"

	"pcsmon"
	"pcsmon/internal/core"
	"pcsmon/internal/dataset"
	"pcsmon/internal/historian"
)

// verdict is the part of a unit's final report the correctness gate
// compares: the classification, the localized attacked variable and the
// explanation, which names that variable. A source that does not carry
// the variable or the explanation leaves it unknownVar or empty, and the
// comparison skips it.
type verdict struct {
	Verdict     string
	AttackedVar int
	Explanation string
}

// unknownVar marks a verdict source that does not report the variable.
const unknownVar = -2

func (v verdict) String() string {
	if v.AttackedVar < 0 {
		return v.Verdict
	}
	return fmt.Sprintf("%s (%s)", v.Verdict, historian.VarName(v.AttackedVar))
}

// matches compares a reported verdict with the reference.
func (v verdict) matches(ref verdict) bool {
	return v.Verdict == ref.Verdict &&
		(v.AttackedVar == unknownVar || v.AttackedVar == ref.AttackedVar) &&
		(v.Explanation == "" || v.Explanation == ref.Explanation)
}

// references computes every unit's batch verdict with
// core.System.AnalyzeViews on the same rows the program receives — each
// unit's stream repeated the given number of times — with the same
// calibration and the given onset per unit.
func references(sys *core.System, in *inputs, repeats int, onset func(u int) int) ([]verdict, error) {
	out := make([]verdict, len(in.Units))
	for u, st := range in.Units {
		ctrl, err := datasetOf(st.Ctrl, repeats)
		if err != nil {
			return nil, err
		}
		proc, err := datasetOf(st.Proc, repeats)
		if err != nil {
			return nil, err
		}
		rep, err := sys.AnalyzeViews(ctrl, proc, onset(u), sample)
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", pcsmon.PlantID(uint8(u)), err)
		}
		out[u] = verdict{Verdict: rep.Verdict.String(), AttackedVar: rep.AttackedVar, Explanation: rep.Explanation}
	}
	return out, nil
}

func datasetOf(rows [][]float64, repeats int) (*dataset.Dataset, error) {
	d, err := dataset.New(historian.VarNames())
	if err != nil {
		return nil, err
	}
	for i := 0; i < repeats; i++ {
		for _, r := range rows {
			if err := d.Append(r); err != nil {
				return nil, err
			}
		}
	}
	return d, nil
}

// checkVerdicts compares got against want for every unit, one ledger
// operation per unit; a missing unit is a mismatch.
func checkVerdicts(led *ledger, phase string, want []verdict, got map[int]verdict) {
	for u, w := range want {
		g, ok := got[u]
		var err error
		switch {
		case !ok:
			err = fmt.Errorf("%s: %s: no verdict (reference %v)", phase, pcsmon.PlantID(uint8(u)), w)
		case !g.matches(w):
			err = fmt.Errorf("%s: %s: verdict %v, batch reference %v", phase, pcsmon.PlantID(uint8(u)), g, w)
		}
		led.op(err)
	}
}
