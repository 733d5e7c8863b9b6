// Package cellapi classifies uses of the repository's two future-cell
// APIs — the cost-model engine (pipefut/internal/core) and the
// goroutine-backed runtime (pipefut/internal/future) — from typed syntax.
// It answers, for a call expression, "which cells does this write / touch
// / probe?" and "is this a future call, and what is its shape?".
//
// Both the syntactic pipelint analyzers (internal/analysis) and the
// SSA-lite flow layer (internal/ssa, internal/analysis/flow) build on
// this classification, so the recognized API surface lives in exactly
// one place.
package cellapi

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Import paths of the two futures implementations the analyzers know.
const (
	CorePath   = "pipefut/internal/core"
	FuturePath = "pipefut/internal/future"
)

// CalleeOf resolves the function or method a call expression invokes,
// looking through parentheses and explicit generic instantiation
// (core.Write[int](...)). It returns nil for calls through function
// values, conversions, and built-ins.
func CalleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	for {
		switch f := fun.(type) {
		case *ast.IndexExpr:
			fun = ast.Unparen(f.X)
			continue
		case *ast.IndexListExpr:
			fun = ast.Unparen(f.X)
			continue
		}
		break
	}
	var id *ast.Ident
	switch f := fun.(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		id = f.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// IsFunc reports whether fn is the named function (or method) of the
// package with the given import path.
func IsFunc(fn *types.Func, path, name string) bool {
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == path && fn.Name() == name
}

// RecvExpr returns the receiver expression of a method call (`c` in
// `c.Write(v)`), or nil if the call is not through a selector.
func RecvExpr(call *ast.CallExpr) ast.Expr {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		return sel.X
	}
	return nil
}

// WriteTargets returns the cell expressions a call writes, if the call is
// one of the recognized write operations:
//
//	core.Write(t, c, v)        → c
//	core.Forward(t, src, dst)  → dst
//	(*future.Cell).Write(v)    → receiver
func WriteTargets(info *types.Info, call *ast.CallExpr) []ast.Expr {
	fn := CalleeOf(info, call)
	switch {
	case IsFunc(fn, CorePath, "Write") && len(call.Args) >= 2:
		return []ast.Expr{call.Args[1]}
	case IsFunc(fn, CorePath, "Forward") && len(call.Args) >= 3:
		return []ast.Expr{call.Args[2]}
	case IsFunc(fn, FuturePath, "Write") && fn.Signature().Recv() != nil:
		if r := RecvExpr(call); r != nil {
			return []ast.Expr{r}
		}
	}
	return nil
}

// TouchTargets returns the cell expressions a call reads:
//
//	core.Touch(t, c)               → c
//	core.Forward(t, src, dst)      → src
//	(*future.Cell).Read/TryRead()  → receiver
func TouchTargets(info *types.Info, call *ast.CallExpr) []ast.Expr {
	fn := CalleeOf(info, call)
	switch {
	case IsFunc(fn, CorePath, "Touch") && len(call.Args) >= 2:
		return []ast.Expr{call.Args[1]}
	case IsFunc(fn, CorePath, "Forward") && len(call.Args) >= 2:
		return []ast.Expr{call.Args[1]}
	case (IsFunc(fn, FuturePath, "Read") || IsFunc(fn, FuturePath, "TryRead")) && fn.Signature().Recv() != nil:
		if r := RecvExpr(call); r != nil {
			return []ast.Expr{r}
		}
	}
	return nil
}

// ProbeTargets returns cell expressions a call inspects without a model
// read action (Ready, Force, Reads, WriteTime); these count as uses but
// neither writes nor linear touches.
func ProbeTargets(info *types.Info, call *ast.CallExpr) []ast.Expr {
	fn := CalleeOf(info, call)
	if fn == nil || fn.Signature().Recv() == nil {
		return nil
	}
	switch {
	case IsFunc(fn, FuturePath, "Ready"),
		IsFunc(fn, CorePath, "Ready"),
		IsFunc(fn, CorePath, "Force"),
		IsFunc(fn, CorePath, "Reads"),
		IsFunc(fn, CorePath, "WriteTime"):
		if r := RecvExpr(call); r != nil {
			return []ast.Expr{r}
		}
	}
	return nil
}

// ForkInfo describes a recognized future call.
type ForkInfo struct {
	Fn *types.Func
	// Results is the number of result cells returned (0 for ForkN, whose
	// cells come back as a slice).
	Results int
	// Body is the index of the fork-body argument, or -1 (Fork1, Spawn
	// take a plain value-returning body that cannot miss a write).
	Body int
	// CellParams is the index of the first cell parameter of the body
	// function (after the *core.Ctx parameter when present), or -1 when
	// the body receives no write capabilities.
	CellParams int
	// SliceParam reports that the body's cell parameter is a []*Cell
	// (ForkN / SpawnN style) rather than individual cells.
	SliceParam bool
}

// ForkCall classifies a call as one of the future-spawning operations of
// core or future, returning its shape. ok is false for everything else.
func ForkCall(info *types.Info, call *ast.CallExpr) (ForkInfo, bool) {
	fn := CalleeOf(info, call)
	if fn == nil || fn.Pkg() == nil {
		return ForkInfo{}, false
	}
	switch fn.Pkg().Path() {
	case CorePath:
		switch fn.Name() {
		case "Fork1":
			return ForkInfo{Fn: fn, Results: 1, Body: -1, CellParams: -1}, true
		case "Fork2":
			return ForkInfo{Fn: fn, Results: 2, Body: 1, CellParams: 1}, true
		case "Fork3":
			return ForkInfo{Fn: fn, Results: 3, Body: 1, CellParams: 1}, true
		case "ForkN":
			return ForkInfo{Fn: fn, Results: 0, Body: 2, CellParams: 1, SliceParam: true}, true
		}
	case FuturePath:
		switch fn.Name() {
		case "Spawn":
			return ForkInfo{Fn: fn, Results: 1, Body: -1, CellParams: -1}, true
		case "Spawn2":
			return ForkInfo{Fn: fn, Results: 2, Body: 0, CellParams: 0}, true
		case "Spawn3":
			return ForkInfo{Fn: fn, Results: 3, Body: 0, CellParams: 0}, true
		}
	}
	return ForkInfo{}, false
}

// BodyLit returns the function literal passed as the fork-body argument
// of a recognized future call, or nil when the body is built elsewhere
// (a variable, a named function value) or the fork takes no body
// argument (Fork1/Spawn take a plain value-returning closure, returned
// through BodyExpr instead).
func (f ForkInfo) BodyLit(call *ast.CallExpr) *ast.FuncLit {
	e := f.BodyExpr(call)
	if e == nil {
		return nil
	}
	lit, _ := ast.Unparen(e).(*ast.FuncLit)
	return lit
}

// BodyExpr returns the fork-body argument expression: the explicit body
// argument for Fork2/3/N and Spawn2/3, the trailing closure for
// Fork1/Spawn. It returns nil if the call is malformed.
func (f ForkInfo) BodyExpr(call *ast.CallExpr) ast.Expr {
	idx := f.Body
	if idx < 0 {
		// Fork1(parent, f) / Spawn(f): the body is the last argument.
		idx = len(call.Args) - 1
	}
	if idx < 0 || idx >= len(call.Args) {
		return nil
	}
	return call.Args[idx]
}

// PrewrittenCell reports whether the call creates a cell that is already
// written at birth (core.Done, core.NowCell, future.Done): a later Write
// on it always panics.
func PrewrittenCell(info *types.Info, call *ast.CallExpr) bool {
	fn := CalleeOf(info, call)
	return IsFunc(fn, CorePath, "Done") || IsFunc(fn, CorePath, "NowCell") ||
		(IsFunc(fn, FuturePath, "Done") && fn.Signature().Recv() == nil)
}

// EmptyCellCall reports whether the call creates a fresh, unwritten cell
// with no producing fork (future.New): whoever holds it must arrange the
// write explicitly.
func EmptyCellCall(info *types.Info, call *ast.CallExpr) bool {
	fn := CalleeOf(info, call)
	return IsFunc(fn, FuturePath, "New")
}

// IsCellType reports whether t is (a pointer to) one of the two Cell
// types, or a slice of cells (the ForkN shape).
func IsCellType(t types.Type) bool {
	if t == nil {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Pointer:
		return isNamedCell(u.Elem())
	case *types.Slice:
		return IsCellType(u.Elem())
	}
	return isNamedCell(t)
}

func isNamedCell(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj == nil || obj.Pkg() == nil || obj.Name() != "Cell" {
		return false
	}
	p := obj.Pkg().Path()
	return p == CorePath || p == FuturePath
}

// IdentObj resolves an expression to the variable it names, or nil if the
// expression is not a plain identifier (the analyzers track only simple
// variables; anything else is conservatively ignored).
func IdentObj(info *types.Info, e ast.Expr) *types.Var {
	_, v := IdentNode(info, e)
	return v
}

// IdentNode is like IdentObj but also returns the identifier node itself.
func IdentNode(info *types.Info, e ast.Expr) (*ast.Ident, *types.Var) {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil, nil
	}
	if v, ok := info.Uses[id].(*types.Var); ok {
		return id, v
	}
	if v, ok := info.Defs[id].(*types.Var); ok {
		return id, v
	}
	return nil, nil
}

// Within reports whether pos lies inside node's source extent.
func Within(pos token.Pos, node ast.Node) bool {
	return node.Pos() <= pos && pos < node.End()
}
