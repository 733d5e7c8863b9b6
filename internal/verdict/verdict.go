// Package verdict records pipelint's static flow analyses as a
// test-time contract. A checked-in manifest (verdicts.json, regenerated
// by `pipelint -verdicts`) assigns every verified algorithm entry point
// a flow CLASS — how many touches of a future cell may happen before the
// cell's write:
//
//	class      pre-write touches
//	general    unbounded
//	linear     at most one
//	forwarded  none
//
// The runtime does not read the manifest: it has one cell type
// (sched.Cell), sound for every class. The classes are checked against
// recorded DAGs by internal/verifycross (CheckTrace), and the manifest's
// seqsafe bits are the proofs every grain-coarsening entry point of
// internal/paralg must carry (verifycross
// TestSeqSafeCoversEveryCoarsenedEntry).
//
// The ladder is a real contract inclusion: every forwarded flow is a
// legal linear flow, and every linear flow is a legal general flow, so
// Meet (the weaker of two classes) is always a sound joint claim and
// General is the always-sound fallback.
//
// Entries the cell analyses cannot see into (paralg's RConfig ports talk
// to cells through the Runtime interface, not the recognized core/future
// cell API) are marked Unanalyzed. An unanalyzed entry contributes
// nothing to its witness group's class: the group takes the meet of its
// ANALYZED members, and the unanalyzed twins inherit that meet — each
// group pairs a traceable costalg algorithm with its paralg ports of the
// identical recursion structure, and internal/verifycross re-checks the
// claim against the group's recorded DAGs (see CheckTrace), failing
// closed on any mis-tag.
package verdict

import (
	_ "embed"
	"encoding/json"
	"fmt"

	"pipefut/internal/trace"
)

// Class is a future-flow class. The zero value is invalid; parse with
// ParseClass or use the constants.
type Class string

const (
	// Unanalyzed marks an entry point whose cell traffic the analyses
	// cannot see (no recognized cell operation is reachable from it). It
	// claims nothing and is excluded from group meets.
	Unanalyzed Class = "unanalyzed"
	// General claims nothing: any number of touches may precede a cell's
	// write. Always sound.
	General Class = "general"
	// Linear claims at most one touch of each cell before its write
	// (flowlinear's verdict — at most one touch per cell on any path).
	Linear Class = "linear"
	// Forwarded claims every touch of each cell happens after the cell's
	// write (the mustwrite-derived synchronous-materialization verdict).
	Forwarded Class = "forwarded"
)

// rank orders the claiming classes by contract strength; the flows a
// higher rank admits are a subset of those a lower rank admits.
var rank = map[Class]int{General: 0, Linear: 1, Forwarded: 2}

// AtLeast reports whether c carries a claim at least as strong as min.
// Unanalyzed (and the zero value) claims nothing and is never AtLeast
// any claiming class.
func (c Class) AtLeast(min Class) bool {
	rc, ok := rank[c]
	rm, okm := rank[min]
	return ok && okm && rc >= rm
}

// ParseClass validates a manifest class string.
func ParseClass(s string) (Class, error) {
	c := Class(s)
	if _, ok := rank[c]; !ok && c != Unanalyzed {
		return "", fmt.Errorf("verdict: unknown flow class %q", s)
	}
	return c, nil
}

// Meet returns the weaker joint claim of two classes. Unanalyzed (and
// the zero value) is the identity: it claims nothing about the flows it
// cannot see, so the other side's claim stands.
func Meet(a, b Class) Class {
	if a == Unanalyzed || a == "" {
		return b
	}
	if b == Unanalyzed || b == "" {
		return a
	}
	if rank[a] < rank[b] {
		return a
	}
	return b
}

// Groups maps each witness group to the entry points it covers. The
// table mirrors internal/verifycross's algCases one-for-one — each group
// couples one dynamic construction (recorded on the costalg tracing
// engine) with the static entry points that construction witnesses —
// and verifycross asserts the mirror stays exact, so a new algorithm
// cannot join the manifest without joining the dynamic harness.
var Groups = map[string][]string{
	"merge":             {"costalg.Merge", "costalg.Split", "costalg.SplitSeq", "paralg.RConfig.Merge"},
	"union":             {"costalg.Union", "costalg.SplitM", "costalg.SplitMSeq", "paralg.RConfig.Union"},
	"intersect":         {"costalg.Intersect", "paralg.RConfig.Intersect"},
	"diff":              {"costalg.Diff", "paralg.RConfig.Diff"},
	"join":              {"costalg.Join", "paralg.RConfig.Join"},
	"buildtreap":        {"costalg.BuildTreap", "costalg.InsertKeys", "costalg.DeleteKeys", "paralg.RConfig.BuildTreap", "paralg.RConfig.InsertKeys", "paralg.RConfig.DeleteKeys"},
	"mergesort":         {"costalg.Mergesort", "paralg.RConfig.Mergesort"},
	"mergesortbalanced": {"costalg.MergesortBalanced"},
	"quicksort":         {"costalg.Quicksort", "costalg.PartitionF", "paralg.RConfig.Quicksort"},
	"rebalance":         {"costalg.Annotate", "costalg.Rebalance", "costalg.SplitRank", "paralg.RConfig.Annotate", "paralg.RConfig.Rebalance"},
	"mergebalanced":     {"costalg.MergeBalanced", "paralg.RConfig.MergeBalanced"},
	"t26":               {"costalg.T26Insert", "costalg.T26BulkInsert", "paralg.RConfig.T26Insert", "paralg.RConfig.T26BulkInsert"},
	"nopipe":            {"costalg.MergeNoPipe", "costalg.UnionNoPipe", "costalg.IntersectNoPipe", "costalg.DiffNoPipe", "costalg.MergesortNoPipe", "costalg.QuicksortNoPipe", "costalg.T26BulkInsertNoPipe"},
	"split":             {"paralg.RConfig.Split", "paralg.RConfig.SplitRanges"},
	"prodcons":          {"costalg.Produce", "costalg.Consume", "paralg.RConfig.Produce", "paralg.RConfig.Consume"},
	"snapshot":          {"costalg.CollectKeys", "paralg.RSnapshotKeys"},
}

// Budget kinds, ordered by growth. Like flow classes, a budget is a
// CLAIM: "one call of this entry allocates at most this many cells".
// BudgetUnanalyzed claims nothing (the entry's allocations flow through
// an opaque runtime interface) and is excluded from group joins.
const (
	BudgetUnanalyzed = "unanalyzed"
	BudgetConst      = "const"  // at most K cells per call
	BudgetSpine      = "spine"  // at most K cells per recursion-spine level
	BudgetLinear     = "linear" // at most ~K cells per input node (treap-balance model)
)

// budgetRank orders the claiming budget kinds by growth; larger is a
// weaker (more permissive) claim.
var budgetRank = map[string]int{BudgetConst: 0, BudgetSpine: 1, BudgetLinear: 2}

// Budget is one symbolic cell-allocation bound.
type Budget struct {
	Kind string `json:"kind"`
	K    int    `json:"k,omitempty"`
	// Detail attributes the bound: own allocation sites plus each
	// contributing callee's budget.
	Detail string `json:"detail,omitempty"`
}

// Claims reports whether the budget claims anything at all.
func (b Budget) Claims() bool {
	_, ok := budgetRank[b.Kind]
	return ok
}

// JoinBudget returns the weaker of two budget claims — the larger kind
// and the larger coefficient — which is the sound joint claim of a
// witness group. Unanalyzed (and the zero value) is the identity.
func JoinBudget(a, b Budget) Budget {
	if !a.Claims() {
		return b
	}
	if !b.Claims() {
		return a
	}
	out := a
	out.Detail = ""
	if budgetRank[b.Kind] > budgetRank[out.Kind] {
		out.Kind = b.Kind
	}
	if b.K > out.K {
		out.K = b.K
	}
	return out
}

// SeqSafeVerdict records whether an entry point's below-cutoff
// sequential twins are proven cell-free: no allocation, no fork, and no
// touch or write of any cell. Only entries with Safe=true may honor
// paralg.RConfig.GrainCutoff; everything else fails closed to the
// pipelined path.
type SeqSafeVerdict struct {
	Safe   bool   `json:"safe"`
	Detail string `json:"detail,omitempty"`
}

// CellBudget is the manifest's allocation-bound section, generated by
// the cellcost analysis and re-proven dynamically by verifycross's
// budget lane.
type CellBudget struct {
	// Entries maps entry-point specs to their own analyzed budgets.
	Entries map[string]Budget `json:"entries"`
	// Groups maps witness groups to the join (weakest claim) of their
	// analyzed members — the budget the unanalyzed twins inherit.
	Groups map[string]Budget `json:"groups"`
	// SeqSafe maps grain-cutoff entry points to their sequential-twin
	// verdicts.
	SeqSafe map[string]SeqSafeVerdict `json:"seqsafe"`
}

// EntryVerdict is one entry point's manifest record.
type EntryVerdict struct {
	Class Class `json:"class"`
	// Detail explains the classification: why a linear entry is not
	// forwarded, or the first finding that demoted a general entry.
	Detail string `json:"detail,omitempty"`
}

// GroupVerdict is one witness group's manifest record: the meet of its
// analyzed members' classes.
type GroupVerdict struct {
	Class Class `json:"class"`
}

// Manifest is the machine-readable verdict manifest.
type Manifest struct {
	Entries map[string]EntryVerdict `json:"entries"`
	Groups  map[string]GroupVerdict `json:"groups"`
	// CellBudget is the allocation-bound section; omitted by manifests
	// generated before it existed (readers must fail closed on nil).
	CellBudget *CellBudget `json:"cell_budget,omitempty"`
}

// JSON renders the manifest in its canonical on-disk form. Map keys
// marshal sorted, so the bytes are deterministic for a given manifest.
func (m *Manifest) JSON() []byte {
	b, err := json.MarshalIndent(m, "", "\t")
	if err != nil {
		panic("verdict: marshal manifest: " + err.Error()) // no unmarshalable fields
	}
	return append(b, '\n')
}

//go:embed verdicts.json
var goldenJSON []byte

var golden = func() *Manifest {
	var m Manifest
	if err := json.Unmarshal(goldenJSON, &m); err != nil {
		panic("verdict: embedded verdicts.json is invalid: " + err.Error())
	}
	return &m
}()

// Golden returns the checked-in manifest.
func Golden() *Manifest { return golden }

// ClassOf returns the class the golden manifest assigns to an entry
// point ("paralg.RConfig.Merge"-style spec): the entry's own analyzed
// class when it has one, otherwise the meet of its witness group (the
// twin-witness claim verifycross re-checks dynamically). Unknown entries
// get General, the always-sound fallback.
func ClassOf(entry string) Class {
	ev, ok := golden.Entries[entry]
	if ok && ev.Class != Unanalyzed && ev.Class != "" {
		return ev.Class
	}
	if !ok {
		return General
	}
	for group, members := range Groups {
		for _, m := range members {
			if m == entry {
				if gv, ok := golden.Groups[group]; ok && gv.Class != "" {
					return gv.Class
				}
				return General
			}
		}
	}
	return General
}

// CheckTrace verifies that a recorded DAG satisfies a claimed class,
// returning a descriptive error when it does not. This is the dynamic
// half of the manifest's claims: verifycross runs it for every witness
// group against the group's manifest class.
//
// Note Forwarded does NOT imply the Linearity check: a forwarded flow
// may touch a written cell many times (post-write touches are
// unrestricted); its claim is only that no touch
// precedes the write.
func CheckTrace(c Class, tr *trace.Trace) error {
	switch c {
	case Linear:
		l := tr.Linearity()
		if !l.Linear() {
			return fmt.Errorf("claimed linear, but the recorded DAG touches %d cell(s) more than once (max %d touches; cells %v)",
				len(l.MultiTouched), l.MaxTouches, sample(l.MultiTouched))
		}
	case Forwarded:
		f := tr.Forwarding()
		if !f.Forwarded() {
			return fmt.Errorf("claimed forwarded, but %d of %d touched cell(s) have a touch not ordered after the cell's write (cells %v)",
				len(f.EarlyTouched), f.TouchedCells, sample(f.EarlyTouched))
		}
	case General, Unanalyzed:
		// No claim to check.
	default:
		return fmt.Errorf("unknown flow class %q", c)
	}
	return nil
}

// BudgetOf returns the golden manifest's allocation bound for an entry
// point: the entry's own analyzed budget when it claims something,
// otherwise its witness group's join. Entries the manifest does not
// cover (or manifests without a CellBudget section) get the no-claim
// budget.
func BudgetOf(entry string) Budget {
	cb := golden.CellBudget
	if cb == nil {
		return Budget{Kind: BudgetUnanalyzed}
	}
	if b, ok := cb.Entries[entry]; ok && b.Claims() {
		return b
	}
	for group, members := range Groups {
		for _, m := range members {
			if m == entry {
				if b, ok := cb.Groups[group]; ok && b.Claims() {
					return b
				}
				return Budget{Kind: BudgetUnanalyzed}
			}
		}
	}
	return Budget{Kind: BudgetUnanalyzed}
}

// SeqSafeOf reports whether the golden manifest proves an entry point's
// below-cutoff sequential twins cell-free. Missing sections, missing
// entries, and stale manifests all read as false: grain coarsening is
// opt-in by proof.
func SeqSafeOf(entry string) bool {
	cb := golden.CellBudget
	return cb != nil && cb.SeqSafe[entry].Safe
}

// EvalBudget instantiates a symbolic budget for one call: spine is a
// bound on the recursion spine the call can descend (input heights plus
// slack) and n a bound on the input size (total nodes). The second
// result is false when the budget claims nothing.
//
// The slack constants (+2) cover the base-case writes at the frontier.
// The linear bound is multiplicative in the spine: a recursive entry
// whose per-level charge is itself linear (divide-and-conquer builds
// unioning per level, merges splitting per level) allocates up to K
// cells per node per recursion level, so the sound closed form is
// K·n·spine — the treap-balance model keeps real runs far below it
// (BuildTreap lands near K·n·lg n), which is exactly what the dynamic
// lane re-checks.
func EvalBudget(b Budget, spine, n int) (int, bool) {
	switch b.Kind {
	case BudgetConst:
		return b.K, true
	case BudgetSpine:
		return b.K * (spine + 2), true
	case BudgetLinear:
		return b.K * (n + 2) * (spine + 2), true
	}
	return 0, false
}

// CheckBudget verifies a measured allocation count against a claimed
// budget, returning a descriptive error on violation. A budget with no
// claim always passes — this is the dynamic half of the budget proof,
// not a coverage check.
func CheckBudget(b Budget, measured, spine, n int) error {
	bound, ok := EvalBudget(b, spine, n)
	if !ok {
		return nil
	}
	if measured > bound {
		return fmt.Errorf("claimed cell budget %s(%d), but the run allocated %d cells (bound %d at spine=%d n=%d)",
			b.Kind, b.K, measured, bound, spine, n)
	}
	return nil
}

// sample keeps violation messages readable when many cells offend.
func sample(cells []int64) any {
	const max = 12
	if len(cells) <= max {
		return cells
	}
	return fmt.Sprintf("%v ... and %d more", cells[:max], len(cells)-max)
}
