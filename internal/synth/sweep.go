package synth

// The corpus sweep: every generated problem of a seed window under every
// chosen mechanism, explored, classified and tallied by constraint shape.
// cmd/syncfuzz and evalsync's T9 table both run it.

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/explore"
	"repro/internal/kernel"
)

// Verdict statuses, spelled as the repro-fuzz/v1 summary spells them.
const (
	StatusPass          = "pass"          // no finding within the budget
	StatusFail          = "fail"          // an oracle violation
	StatusDeadlock      = "deadlock"      // a kernel deadlock
	StatusError         = "error"         // any other kernel error, or a failed audit
	StatusInexpressible = "inexpressible" // the mechanism refused the set (Supports)
)

// Verdict is one mechanism's outcome on one generated problem.
type Verdict struct {
	Mechanism string
	Status    string
	// Reason is the Supports error of an inexpressible set.
	Reason string
	// Program and Oracle are what Result explored; nil when the set is
	// inexpressible.
	Program explore.Program
	Oracle  explore.Oracle
	Result  explore.Result
}

// Row tallies the verdicts of one mechanism on one constraint shape.
type Row struct {
	Mechanism     string `json:"mechanism"`
	Shape         string `json:"shape"`
	Pass          int    `json:"pass"`
	Fail          int    `json:"fail"`
	Deadlock      int    `json:"deadlock"`
	Error         int    `json:"error,omitempty"`
	Inexpressible int    `json:"inexpressible,omitempty"`
}

func (r *Row) add(status string) {
	switch status {
	case StatusPass:
		r.Pass++
	case StatusFail:
		r.Fail++
	case StatusDeadlock:
		r.Deadlock++
	case StatusError:
		r.Error++
	case StatusInexpressible:
		r.Inexpressible++
	}
}

// Sweep explores the generated problems of seeds seed..seed+n-1 under
// each of mechs with opts and returns the tally, sorted by mechanism, then
// shape. each, when non-nil, sees every problem's set once its verdicts,
// in the order of mechs, are in. An error from each, or from a Program
// that fails after Supports accepted its set, stops the sweep.
func Sweep(seed int64, n int, mechs []string, opts explore.Options, each func(*Set, []Verdict) error) ([]Row, error) {
	cells := map[[2]string]*Row{}
	for i := 0; i < n; i++ {
		set := Generate(seed + int64(i))
		shape := set.Shape()
		verdicts := make([]Verdict, 0, len(mechs))
		for _, mech := range mechs {
			v, err := verdict(set, mech, opts)
			if err != nil {
				return nil, fmt.Errorf("synth: %s on %s: %w", mech, set.Name, err)
			}
			verdicts = append(verdicts, v)
			key := [2]string{mech, shape}
			if cells[key] == nil {
				cells[key] = &Row{Mechanism: mech, Shape: shape}
			}
			cells[key].add(v.Status)
		}
		if each != nil {
			if err := each(set, verdicts); err != nil {
				return nil, err
			}
		}
	}
	rows := make([]Row, 0, len(cells))
	for _, c := range cells {
		rows = append(rows, *c)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Mechanism != rows[j].Mechanism {
			return rows[i].Mechanism < rows[j].Mechanism
		}
		return rows[i].Shape < rows[j].Shape
	})
	return rows, nil
}

// verdict explores set under mech and classifies the result.
func verdict(set *Set, mech string, opts explore.Options) (Verdict, error) {
	v := Verdict{Mechanism: mech}
	if err := Supports(mech, set); err != nil {
		v.Status, v.Reason = StatusInexpressible, err.Error()
		return v, nil
	}
	prog, oracle, err := Program(set, mech)
	if err != nil {
		return v, err
	}
	v.Program, v.Oracle = prog, oracle
	v.Result = explore.Run(prog, oracle, opts)
	switch res := v.Result; {
	case !res.Found:
		v.Status = StatusPass
	case errors.Is(res.Err, kernel.ErrDeadlock):
		v.Status = StatusDeadlock
	case res.Err != nil:
		v.Status = StatusError
	default:
		v.Status = StatusFail
	}
	return v, nil
}
