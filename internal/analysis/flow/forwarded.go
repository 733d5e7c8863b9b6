package flow

// Forwarded-flow classification: the static half of the "forwarded"
// cell class (write-before-touch). A flow is forwarded when every touch
// it can execute happens at a point where the touched cell's write has
// already been SEQUENCED before it — by straight-line order, by a call
// that writes the cell on every path before returning, or because the
// cell arrives prewritten (Done/NowCell) or materialized from the
// caller. A forwarded flow never suspends: every touch finds its cell
// already written.
//
// The analysis is deliberately stricter than mustwrite's "handled"
// discipline: mustwrite discharges a cell once a CONCURRENT producer is
// spawned for it (the write will happen, some time), which is exactly
// what a forwarded cell cannot tolerate — the touch might still run
// first. Here a fork discharges nothing; only synchronous writes count.
//
// Approximation boundary (documented, and backstopped by the dynamic
// verifycross lane plus the fail-closed panic in the cells themselves):
// values obtained outside cell tracking — typically tree nodes returned
// by a touch — are treated as deeply materialized, i.e. cells reached
// through their fields (OZero-rooted chains) are considered written.
// This is the "a touched node of a fully built tree has fully built
// children" assumption; flows that violate it do so by touching a fork
// result somewhere upstream, which this analysis rejects directly.

import (
	"fmt"
	"go/ast"
	"go/types"

	"pipefut/internal/ssa"
)

// forwardedFact is one function's converged forwarded-flow abstract.
type forwardedFact struct {
	// needsParam/needsFree: cells the function touches (transitively)
	// that must already be materialized when it is entered. For an
	// entry point these are covered by the entry contract (the caller
	// passes materialized operands); at interior call sites they are
	// demands checked against the caller's own state.
	needsParam []bool
	needsFree  map[*types.Var]bool

	// syncParam[i]: parameter i is written on every path before every
	// normal return, by synchronous code only (no fork discharge).
	// Optimistic start (true) so recursion converges downward.
	syncParam []bool

	// resultSync[i]: result i is a cell that is materialized at every
	// return. seeded marks the map as computed at least once; before
	// that, lookups on bodied functions are optimistically true.
	resultSync map[int]bool
	seeded     bool

	// demoted: some reachable touch cannot be proven write-before-touch
	// in any calling context; reason names the first offender.
	demoted bool
	reason  string
}

func (f *forwardedFact) demote(reason string) bool {
	if f.demoted {
		return false
	}
	f.demoted = true
	f.reason = reason
	return true
}

// Forwarded reports whether fn's flow is statically write-before-touch
// (its cells may be compiled to forwarded cells, provided the caller
// enters it with materialized operands), and the demotion reason when
// it is not.
func (s *Summaries) Forwarded(fn *ssa.Func) (bool, string) {
	f := s.forwardedFacts()[fn]
	if f == nil {
		return false, "function not analyzed"
	}
	if f.demoted {
		return false, f.reason
	}
	return true, ""
}

// forwardedFacts computes (once) the whole-program forwarded fixpoint.
func (s *Summaries) forwardedFacts() map[*ssa.Func]*forwardedFact {
	s.fwdMu.Lock()
	defer s.fwdMu.Unlock()
	if s.fwd != nil {
		return s.fwd
	}
	facts := make(map[*ssa.Func]*forwardedFact, len(s.prog.Funcs))
	for _, fn := range s.prog.Funcs {
		f := &forwardedFact{
			needsParam: make([]bool, len(fn.Params)),
			needsFree:  map[*types.Var]bool{},
			syncParam:  make([]bool, len(fn.Params)),
		}
		if len(fn.Blocks) == 0 {
			// Blackbox: nothing provable, nothing optimistic.
			f.resultSync = map[int]bool{}
			f.seeded = true
		} else {
			for i := range f.syncParam {
				f.syncParam[i] = true // optimistic top; descends
			}
		}
		facts[fn] = f
	}
	// OCall origins name their call site by syntax; index the OpCall
	// instructions so result origins can be traced to their callee.
	calls := make(map[ast.Node]*ssa.Instr)
	for _, fn := range s.prog.Funcs {
		for _, b := range fn.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ssa.OpCall && in.Call != nil {
					calls[in.Call] = in
				}
			}
		}
	}
	for round := 0; round < 64; round++ {
		changed := false
		for _, fn := range s.prog.Funcs {
			if len(fn.Blocks) == 0 {
				continue
			}
			if s.forwardedRound(fn, facts, calls) {
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	s.fwd = facts
	return facts
}

// forwardedRound re-derives fn's fact from the current facts of every
// other function, reporting whether anything changed. Demand additions
// (needsParam/needsFree) mutate the fact in place during the replay.
func (s *Summaries) forwardedRound(fn *ssa.Func, facts map[*ssa.Func]*forwardedFact, calls map[ast.Node]*ssa.Instr) bool {
	f := facts[fn]
	changed := false

	res := (&Problem{Fn: fn, Mode: Must, Transfer: s.syncWriteTransfer(facts)}).Solve()

	// syncParam: written (synchronously) on every path into the exit.
	// An unreachable exit keeps the optimistic vacuous truth, mirroring
	// ParamMustWrite.
	newSync := make([]bool, len(fn.Params))
	if exitIn, ok := res.In[fn.Exit]; ok {
		for o := range exitIn {
			for _, root := range rootsOf(o) {
				if root.Kind == ssa.OParam && root.Index < len(newSync) {
					newSync[root.Index] = true
				}
			}
		}
	} else {
		for i := range newSync {
			newSync[i] = true
		}
	}
	if !boolsEqual(newSync, f.syncParam) {
		f.syncParam = newSync
		changed = true
	}

	// Demand checks plus resultSync, replayed over the converged states.
	newResult := map[int]bool{}
	resultSeen := map[int]bool{}
	avail := func(st State, o *ssa.Origin) (bool, string) {
		ok, reason := s.fwdAvail(st, o, f, facts, calls, &changed)
		return ok, reason
	}
	demote := func(reason string) {
		if f.demote(reason) {
			changed = true
		}
	}
	replay(fn, res, s.syncWriteTransfer(facts), func(in *ssa.Instr, st State) {
		switch in.Op {
		case ssa.OpTouch:
			if ok, reason := avail(st, in.Cell); !ok {
				demote(reason)
			}
		case ssa.OpReturn:
			for _, a := range in.Args {
				ok, _ := avail(st, a.Origin)
				if resultSeen[a.Index] {
					newResult[a.Index] = newResult[a.Index] && ok
				} else {
					resultSeen[a.Index] = true
					newResult[a.Index] = ok
				}
			}
		case ssa.OpCall:
			cf := facts[in.Callee]
			if cf == nil || (in.Callee != nil && len(in.Callee.Blocks) == 0) {
				// A cell handed across the analysis horizon may be
				// touched there before its write.
				if len(in.Args) > 0 {
					demote("cell passed to an untracked call")
				}
				return
			}
			if cf.demoted {
				demote(fmt.Sprintf("calls %s: %s", in.Callee.Name, cf.reason))
			}
			for _, a := range in.Args {
				if a.Origin != nil && boolAt(cf.needsParam, a.Index) {
					if ok, reason := avail(st, a.Origin); !ok {
						demote(reason)
					}
				}
			}
			for _, fc := range in.Free {
				if cf.needsFree[fc.Var] {
					if ok, reason := avail(st, fc.Origin); !ok {
						demote(reason)
					}
				}
			}
		case ssa.OpFork:
			body := facts[in.Fork.Body]
			if body == nil {
				demote("fork of an untracked body")
				return
			}
			if body.demoted {
				name := "fork body"
				if in.Fork.Body != nil {
					name = in.Fork.Body.Name
				}
				demote(fmt.Sprintf("forks %s: %s", name, body.reason))
			}
			for _, fc := range in.Free {
				if body.needsFree[fc.Var] {
					if ok, reason := avail(st, fc.Origin); !ok {
						demote(reason)
					}
				}
			}
			// The body runs concurrently: a cell it needs materialized
			// can only be proven so if the fork site can see its origin,
			// which the IR records for frees and result cells only. A
			// result cell is written by the spawn itself (after the
			// body), so a body needing its own result param is a
			// touch-before-write; any other needed param is a positional
			// cell argument the fork site cannot check.
			resultParam := map[int]bool{}
			for _, rp := range cellResultParams(in.Fork.Info) {
				resultParam[rp[1]] = true
			}
			for i, need := range body.needsParam {
				if !need {
					continue
				}
				if resultParam[i] {
					demote("a forked body touches its own result cell before the spawned write")
				} else {
					demote("a forked body touches a cell argument while running concurrently with it")
				}
			}
		}
	})
	if !f.seeded || !intMapsEqual(newResult, f.resultSync) {
		f.resultSync = newResult
		f.seeded = true
		changed = true
	}
	return changed
}

// syncWriteTransfer marks cells known written by NOW on every path:
// direct writes, prewritten creations, and tracked callees that
// synchronously must-write a parameter. Unlike MustWriteTransfer there
// is no discharge for forks, leaks, or untracked calls — a pending
// concurrent write is exactly what a forwarded cell cannot wait for.
func (s *Summaries) syncWriteTransfer(facts map[*ssa.Func]*forwardedFact) func(in *ssa.Instr, st State) {
	return func(in *ssa.Instr, st State) {
		ApplyResets(in, st)
		switch in.Op {
		case ssa.OpWrite:
			if in.Cell != nil {
				st[in.Cell] = One
			}
		case ssa.OpNewCell:
			if in.Cell != nil && in.Cell.Prewritten {
				st[in.Cell] = One
			}
		case ssa.OpCall:
			cf := facts[in.Callee]
			if cf == nil {
				return
			}
			for _, a := range in.Args {
				if a.Origin != nil && boolAt(cf.syncParam, a.Index) {
					st[a.Origin] = One
				}
			}
		}
	}
}

// fwdAvail decides whether the cell named by o is available (already
// written) at a point with sync-write must-state st. Roots that are
// parameters or free variables are not failures: they become demands on
// the enclosing function's entry (needsParam/needsFree), to be checked
// at every call site — or covered by the entry contract at the top.
func (s *Summaries) fwdAvail(st State, o *ssa.Origin, f *forwardedFact, facts map[*ssa.Func]*forwardedFact, calls map[ast.Node]*ssa.Instr, changed *bool) (bool, string) {
	if o == nil {
		return false, "touch of a cell with no resolved origin"
	}
	if writtenCovered(st, o) {
		return true, ""
	}
	roots := rootsOf(o)
	if len(roots) == 0 {
		return false, "touch of a cell with no resolvable origin"
	}
	for _, root := range roots {
		if chainCount(st, root, nil) > Zero {
			continue
		}
		switch root.Kind {
		case ssa.OParam:
			if root.Index >= 0 && root.Index < len(f.needsParam) {
				if !f.needsParam[root.Index] {
					f.needsParam[root.Index] = true
					*changed = true
				}
				continue
			}
			return false, "touch of an unmapped parameter cell"
		case ssa.OFree:
			if !f.needsFree[root.Var] {
				f.needsFree[root.Var] = true
				*changed = true
			}
			continue
		case ssa.ONew:
			if root.Prewritten {
				continue
			}
			return false, "touch of a locally created cell not written on every prior path"
		case ssa.OCall:
			in := calls[root.Site]
			var cf *forwardedFact
			if in != nil {
				cf = facts[in.Callee]
			}
			if resultSyncOK(cf, root.Index) {
				continue
			}
			return false, "touch of a call result not materialized at return"
		case ssa.OFork:
			return false, "touch of a fork result (pipelined future flow)"
		case ssa.OZero:
			// A local value outside cell tracking — typically a node a
			// touch produced. Deep-materialization assumption; see the
			// package comment.
			continue
		default:
			return false, "touch of a cell of unknown provenance"
		}
	}
	return true, ""
}

// resultSyncOK looks up a callee's result-materialization fact,
// optimistically true for bodied functions not yet seeded (recursion).
func resultSyncOK(f *forwardedFact, idx int) bool {
	if f == nil {
		return false
	}
	if !f.seeded {
		return true
	}
	return f.resultSync[idx]
}

func intMapsEqual(a, b map[int]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if bv, ok := b[k]; !ok || bv != v {
			return false
		}
	}
	return true
}
