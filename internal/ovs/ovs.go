// Package ovs implements the constraint pre-processing step of §5.1: "we
// pre-process the resulting constraint files using a variant of Offline
// Variable Substitution [Rountev and Chandra 23], which reduces the number
// of constraints by 60-77%".
//
// Our variant is a hash-based value-numbering over the offline constraint
// graph: variables that provably have identical points-to sets receive the
// same pointer-equivalence label and are unified before solving. The
// labeling is conservative:
//
//   - ref nodes (unknown dereference results), address-taken variables
//     (which can gain edges from store constraints at solve time), and
//     function return/parameter slots (targets of offset constraints) are
//     "indirect" and get fresh, unshareable labels;
//   - other nodes take the union of their predecessors' labels plus the
//     location label of each variable whose address they take; an empty
//     union is the distinguished label 0 (provably empty points-to set),
//     a singleton union reuses its single label (collapsing copy chains),
//     and larger unions are hash-consed so equal sets share one label.
//
// That is HVN's labeling (internal/hvn) on the graph without its implicit
// ref-to-ref edges, and hvn.ReduceOVS computes it: one engine, so the
// flat-array graph, the search-free labels of isolated nodes and the
// deterministic group order serve both passes.
//
// Constraints are then rewritten through the unification map; constraints
// whose source (or dereferenced variable) has label 0 are deleted, as are
// duplicates and self-copies. The solver applies the returned PreUnions
// before solving so that queries on any original variable keep working.
package ovs

import (
	"time"

	"antgrass/internal/constraint"
	"antgrass/internal/hcd"
	"antgrass/internal/hvn"
)

// Result is the outcome of the substitution pass.
type Result struct {
	// Reduced is the rewritten program (same variable universe).
	Reduced *constraint.Program
	// PreUnions lists variable pairs the solver must union before
	// solving, so that every original variable resolves to the node
	// that carries its (identical) solution. Groups are listed in order
	// of their first member, which leads.
	PreUnions [][2]uint32
	// Before and After are the constraint counts on either side.
	Before, After int
	// MergedVars counts variables unified into a representative.
	MergedVars int
	// Duration is the pre-processing time (paper: under a second for
	// the small benchmarks, 1-3s for the large ones).
	Duration time.Duration
}

// PreUnionTable wraps the pre-unions in an hcd.Result so they can be handed
// to any solver through its HCD-table hook (with no online pairs).
func (r *Result) PreUnionTable() *hcd.Result {
	return &hcd.Result{PreUnions: r.PreUnions}
}

// ReductionPercent returns the percentage of constraints eliminated.
func (r *Result) ReductionPercent() float64 {
	if r.Before == 0 {
		return 0
	}
	return 100 * float64(r.Before-r.After) / float64(r.Before)
}

// Reduce runs the substitution on p. p is not modified.
func Reduce(p *constraint.Program) *Result {
	r := hvn.ReduceOVS(p)
	return &Result{
		Reduced:    r.Reduced,
		PreUnions:  r.PreUnions,
		Before:     r.Before,
		After:      r.After,
		MergedVars: r.MergedVars,
		Duration:   r.Duration,
	}
}
