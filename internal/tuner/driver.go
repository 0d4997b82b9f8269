package tuner

import (
	"math/rand"

	"s2fa/internal/obs"
	"s2fa/internal/space"
)

// Evaluator scores one design point. For S2FA this wraps Merlin
// annotation plus the HLS estimator; for tests it can be any function.
type Evaluator func(space.Point) Result

// Driver runs the search loop: the bandit picks a technique, the
// technique proposes a point, the evaluator scores it, and credit flows
// back. Step evaluates a batch of k distinct candidates, which models
// running k HLS evaluations on k CPU cores concurrently (the vanilla
// OpenTuner baseline in the paper evaluates the top-8 candidates per
// iteration on its 8 cores).
type Driver struct {
	Space      *space.Space
	DB         *DB
	Eval       Evaluator
	Techniques []Technique
	Bandit     *AUCBandit
	Rng        *rand.Rand

	// Trace, when set, receives per-iteration bandit telemetry (arm
	// selections with AUC scores, credit rewards) on track TID. Tracing
	// is read-only: it never draws from Rng or reorders proposals.
	Trace *obs.Trace
	TID   int

	ctx *Context
}

// NewDriver assembles a driver with the default technique ensemble and
// bandit configuration.
func NewDriver(s *space.Space, eval Evaluator, seed int64) *Driver {
	rng := rand.New(rand.NewSource(seed))
	techs := DefaultTechniques(rng)
	d := &Driver{
		Space:      s,
		DB:         NewDB(),
		Eval:       eval,
		Techniques: techs,
		Bandit:     NewAUCBandit(len(techs), 50, 0.05),
		Rng:        rng,
	}
	d.ctx = &Context{Space: s, DB: d.DB, Rng: rng}
	return d
}

// InjectSeed evaluates a caller-provided starting point (paper §4.3.2
// seed generation) and records it without crediting any technique.
func (d *Driver) InjectSeed(pt space.Point) Result {
	r := d.Eval(pt)
	r.Technique = "seed"
	d.DB.Add(r)
	for _, t := range d.Techniques {
		if s, ok := t.(Seedable); ok {
			s.Seed(d.ctx, r)
		}
	}
	return r
}

// proposal is one not-yet-evaluated design point selected by propose,
// remembering which technique it must be credited to on commit (tech is
// -1 for the uniform random fallback).
type proposal struct {
	tech  int
	point space.Point
}

// propose selects up to k distinct new design points without evaluating
// them: the bandit picks techniques, duplicate proposals are penalized,
// and the uniform fallback fills the remainder.
func (d *Driver) propose(k int) []proposal {
	var batch []proposal
	inBatch := map[space.PackedKey]bool{}
	for len(batch) < k {
		found := false
		for attempt := 0; attempt < 16; attempt++ {
			ti := d.Bandit.Select()
			if d.Trace != nil {
				st := d.Bandit.Stats()[ti]
				d.Trace.EventT(d.TID, "tuner", "select",
					obs.Str("arm", d.Techniques[ti].Name()),
					obs.F64("auc", st.AUC),
					obs.F64("score", st.Score),
					obs.Int("uses", st.Uses))
			}
			pt := d.Techniques[ti].Propose(d.ctx)
			key := pt.Packed()
			if d.DB.Seen(pt) || inBatch[key] {
				// Re-proposing an explored point wastes the slot; tell
				// the bandit so the technique loses credit.
				d.Bandit.Reward(ti, false)
				if d.Trace != nil {
					d.Trace.EventT(d.TID, "tuner", "reward",
						obs.Str("arm", d.Techniques[ti].Name()),
						obs.Bool("new_best", false),
						obs.Bool("duplicate", true))
				}
				continue
			}
			inBatch[key] = true
			batch = append(batch, proposal{tech: ti, point: pt})
			found = true
			break
		}
		if !found {
			// Fall back to uniform sampling to keep the batch filled.
			pt := d.Space.RandomPoint(d.Rng)
			key := pt.Packed()
			if d.DB.Seen(pt) || inBatch[key] {
				break // space exhausted (tiny test spaces)
			}
			inBatch[key] = true
			batch = append(batch, proposal{tech: -1, point: pt})
		}
	}
	return batch
}

// commit records the evaluation result of one proposal: technique
// attribution, result database, feedback, and bandit credit. It returns
// the result with Technique filled in.
func (d *Driver) commit(p proposal, r Result) Result {
	if p.tech >= 0 {
		r.Technique = d.Techniques[p.tech].Name()
	} else {
		r.Technique = "random-fill"
	}
	newBest := d.DB.Add(r)
	if p.tech >= 0 {
		d.Techniques[p.tech].Feedback(d.ctx, r)
		d.Bandit.Reward(p.tech, newBest)
		if d.Trace != nil {
			d.Trace.EventT(d.TID, "tuner", "reward",
				obs.Str("arm", r.Technique),
				obs.Bool("new_best", newBest))
		}
	}
	return r
}

// Step proposes and evaluates up to k distinct new design points,
// returning their results in proposal order.
func (d *Driver) Step(k int) []Result {
	batch := d.propose(k)
	out := make([]Result, 0, len(batch))
	for _, p := range batch {
		out = append(out, d.commit(p, d.Eval(p.point)))
	}
	return out
}
