// Package regate measures how close the router's gate decisions come to a
// better gate assignment on the same topology.
//
// The router decides gates during construction with the paper's §4.3
// heuristics; this package answers "how good are those rules?" by taking
// the finished topology, flipping individual gates, replaying the topology
// through the router's own merge for every candidate (core.Replay under a
// gating.Fixed assignment: gate changes shift every tapping point above
// them), and keeping flips that lower the exactly evaluated switched
// capacitance W(T)+W(S).
package regate

import (
	"errors"

	"repro/internal/core"
	"repro/internal/ctrl"
	"repro/internal/gating"
	"repro/internal/power"
	"repro/internal/topology"
)

// GateSet extracts the current gate assignment of a tree.
func GateSet(t *topology.Tree) gating.Fixed {
	gates := make(gating.Fixed)
	t.Root.PreOrder(func(n *topology.Node) {
		if n.Gated() {
			gates[n.ID] = true
		}
	})
	return gates
}

// Result reports one optimization run.
type Result struct {
	Tree      *topology.Tree
	Report    power.Report
	InitialSC float64 // W(T)+W(S) of the input tree
	Flips     int     // accepted gate flips
	Passes    int     // full sweeps over the gate sites
	Evals     int     // candidate replays evaluated
}

// Improve greedily flips single gates (adding or removing) of t, a tree
// routed over in under opts, while the exactly evaluated W(T)+W(S)
// decreases. Each candidate replays t's topology with opts.Policy set to
// the flipped gating.Fixed assignment, so buffers, sizing, the skew budget
// and the root driver follow the router's rules. The search starts from t
// itself, so the result is never worse than t. Every candidate re-solves
// the whole tree, so the cost is O(sites·N) per pass; maxPasses ≤ 0
// selects 3.
func Improve(in *core.Instance, opts core.Options, t *topology.Tree, maxPasses int) (*Result, error) {
	if maxPasses <= 0 {
		maxPasses = 3
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if opts.Controller == nil {
		opts.Controller = ctrl.Centralized(in.Die)
	}
	gates := GateSet(t)
	opts.Policy = gates
	cur, curRep := t, power.Evaluate(t, opts.Controller, opts.Tech)
	res := &Result{InitialSC: curRep.TotalSC}

	var ids []int
	t.Root.PreOrder(func(n *topology.Node) { ids = append(ids, n.ID) })

	for pass := 0; pass < maxPasses; pass++ {
		improved := false
		for _, id := range ids {
			gates[id] = !gates[id]
			cand, err := core.Replay(in, opts, t)
			res.Evals++
			if errors.Is(err, core.ErrInvalidInput) {
				return nil, err
			}
			if err != nil {
				// Some assignments are electrically infeasible (budget
				// violations); skip them.
				gates[id] = !gates[id]
				continue
			}
			rep := power.Evaluate(cand, opts.Controller, opts.Tech)
			if rep.TotalSC < curRep.TotalSC-1e-9 {
				cur, curRep = cand, rep
				res.Flips++
				improved = true
			} else {
				gates[id] = !gates[id]
			}
		}
		res.Passes++
		if !improved {
			break
		}
	}
	res.Tree = cur
	res.Report = curRep
	return res, nil
}
