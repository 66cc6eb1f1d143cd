// Package atomicmix implements the dequevet analyzer that enforces the
// paper's shared-memory access discipline (Section 2): a memory word that
// is ever operated on atomically must be operated on atomically
// everywhere, because a single plain load or store voids the
// happens-before edges every invariant of the mechanical proof leans on.
//
// A location is considered atomic when it is
//
//   - the target of a sync/atomic package call (atomic.LoadUint64(&x.f)),
//     or
//   - declared with one of the sync/atomic types (atomic.Uint64 and
//     friends), whose only legitimate uses are method calls.
//
// Every other read or write of the same field or package-level variable
// is reported, unless it is
//
//   - inside an acknowledged lock window — lexically between a .Lock (or
//     .RLock) call and a matching .Unlock in the same function, the
//     mutual-exclusion idiom whose correctness the lockpath analyzer
//     checks separately; or
//   - annotated with a `//dequevet:benign-race <reason>` directive on the
//     access line (or the line above), for reads the paper itself argues
//     safe — approximate statistics, single-threaded test inspection; or
//   - a plain &x.f address-of that does not feed a sync/atomic call:
//     taking an address is not a data access (layout tests and
//     attribution keys do this), and the eventual dereference
//     is checked wherever it occurs.
//
// The analyzer is intra-package: in-package test files are analyzed
// together with the package proper, so test helpers that peek at shared
// words are held to the same discipline as the algorithm.
package atomicmix

import (
	"go/ast"
	"go/token"
	"go/types"

	"dcasdeque/internal/analysis/framework"
)

// Analyzer is the atomicmix analyzer.
var Analyzer = &framework.Analyzer{
	Name: "atomicmix",
	Doc: "report fields accessed both atomically and with plain loads/stores " +
		"outside an acknowledged lock window (escape hatch: //dequevet:benign-race)",
	Run: run,
}

// BenignRace is the name of the escape-hatch directive.
const BenignRace = "benign-race"

func run(pass *framework.Pass) (any, error) {
	dirs := framework.NewDirectives(pass.Fset, pass.Files)

	// Pass A: find function-style atomic targets (&x.f fed to a
	// sync/atomic call) and remember one representative position each.
	atomicUse := map[types.Object]token.Pos{}
	framework.WalkStack(pass.Files, func(n ast.Node, stack []ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isAtomicFuncCall(pass, call) || len(call.Args) == 0 {
			return
		}
		if obj := addrTarget(pass, call.Args[0]); obj != nil {
			if _, seen := atomicUse[obj]; !seen {
				atomicUse[obj] = call.Pos()
			}
		}
	})

	// Suppressions attached to the declaration cover every access.
	suppressed := declSuppressed(pass)

	// Lock windows, per enclosing function, keyed by receiver spelling.
	windows := lockWindows(pass)

	// Pass B: classify every use of a tracked object.
	framework.WalkStack(pass.Files, func(n ast.Node, stack []ast.Node) {
		var obj types.Object
		var pos token.Pos
		switch e := n.(type) {
		case *ast.SelectorExpr:
			o := pass.TypesInfo.Uses[e.Sel]
			if v, ok := o.(*types.Var); ok && v.IsField() {
				obj, pos = o, e.Sel.Pos()
			}
		case *ast.Ident:
			o := pass.TypesInfo.Uses[e]
			if v, ok := o.(*types.Var); ok && !v.IsField() && packageLevel(pass, v) {
				obj, pos = o, e.Pos()
			}
		}
		if obj == nil {
			return
		}
		_, fnStyle := atomicUse[obj]
		typeStyle := isAtomicType(obj.Type())
		if !fnStyle && !typeStyle {
			return
		}
		if suppressed[obj] || dirs.Covers(pos, BenignRace) {
			return
		}
		switch classify(pass, stack) {
		case accessAtomic:
			return
		case accessAddr:
			// Address taken outside an atomic call: not a data access.
			return
		case accessCompileTime:
			return
		}
		if inLockWindow(windows, stack, pos) {
			return
		}
		if fnStyle {
			at := pass.Fset.Position(atomicUse[obj])
			pass.Reportf(pos,
				"plain access of %s, which is accessed atomically at %s:%d; use sync/atomic, hold the lock, or annotate //dequevet:benign-race",
				obj.Name(), shortFile(at.Filename), at.Line)
		} else {
			pass.Reportf(pos,
				"plain use of atomic-typed %s (type %s); call its methods instead, or annotate //dequevet:benign-race",
				obj.Name(), obj.Type())
		}
	})
	return nil, nil
}

type accessKind int

const (
	accessPlain accessKind = iota
	accessAtomic
	accessAddr
	accessCompileTime
)

// classify decides how the innermost expression on the stack uses the
// tracked object.  The stack's last element is the parent of the
// selector/ident just visited.
func classify(pass *framework.Pass, stack []ast.Node) accessKind {
	if len(stack) == 0 {
		return accessPlain
	}
	parent := stack[len(stack)-1]

	// s.f.Load() — the parent selector resolves to a sync/atomic method.
	if sel, ok := parent.(*ast.SelectorExpr); ok {
		if fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func); ok &&
			fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic" {
			return accessAtomic
		}
	}

	// &s.f — atomic when the address feeds a sync/atomic call, inert
	// otherwise; unwrap any parentheses between the & and the call.
	if u, ok := parent.(*ast.UnaryExpr); ok && u.Op == token.AND {
		for i := len(stack) - 2; i >= 0; i-- {
			switch outer := stack[i].(type) {
			case *ast.ParenExpr:
				continue
			case *ast.CallExpr:
				if isAtomicFuncCall(pass, outer) {
					return accessAtomic
				}
				return accessAddr
			default:
				return accessAddr
			}
		}
		return accessAddr
	}

	// unsafe.Offsetof(s.f) and friends never touch memory.
	for i := len(stack) - 1; i >= 0; i-- {
		if call, ok := stack[i].(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				if pkg, ok := sel.X.(*ast.Ident); ok {
					if pn, ok := pass.TypesInfo.Uses[pkg].(*types.PkgName); ok &&
						pn.Imported().Path() == "unsafe" {
						return accessCompileTime
					}
				}
			}
		}
	}
	return accessPlain
}

// isAtomicFuncCall reports whether call invokes a sync/atomic
// package-level function (atomic.LoadUint64 etc.).
func isAtomicFuncCall(pass *framework.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := pass.TypesInfo.Uses[pkg].(*types.PkgName)
	return ok && pn.Imported().Path() == "sync/atomic"
}

// addrTarget resolves &x.f / &x to the field or package-level variable
// object it addresses, or nil.
func addrTarget(pass *framework.Pass, arg ast.Expr) types.Object {
	u, ok := ast.Unparen(arg).(*ast.UnaryExpr)
	if !ok || u.Op != token.AND {
		return nil
	}
	switch e := ast.Unparen(u.X).(type) {
	case *ast.SelectorExpr:
		if v, ok := pass.TypesInfo.Uses[e.Sel].(*types.Var); ok && v.IsField() {
			return v
		}
	case *ast.Ident:
		if v, ok := pass.TypesInfo.Uses[e].(*types.Var); ok && !v.IsField() && packageLevel(pass, v) {
			return v
		}
	}
	return nil
}

// isAtomicType reports whether t's named type is declared in sync/atomic.
func isAtomicType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	pkg := named.Obj().Pkg()
	return pkg != nil && pkg.Path() == "sync/atomic"
}

// packageLevel reports whether v is a package-scope variable.
func packageLevel(pass *framework.Pass, v *types.Var) bool {
	return v.Parent() == pass.Pkg.Scope()
}

// declSuppressed finds fields and variables whose declaration carries a
// benign-race directive, which suppresses every access.
func declSuppressed(pass *framework.Pass) map[types.Object]bool {
	out := map[types.Object]bool{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				if !framework.FieldHas(field, BenignRace) {
					continue
				}
				for _, name := range field.Names {
					if obj := pass.TypesInfo.Defs[name]; obj != nil {
						out[obj] = true
					}
				}
			}
			return true
		})
	}
	return out
}

// window is one lexical Lock..Unlock span.
type window struct{ lo, hi token.Pos }

// lockWindows computes, per function body, the lexical spans between a
// .Lock/.RLock call and a later .Unlock/.RUnlock on the same receiver
// spelling.  It is an acknowledgment heuristic, not a proof — lockpath
// owns the proof that acquires are balanced.
func lockWindows(pass *framework.Pass) []window {
	var out []window
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			fd, ok := n.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				return true
			}
			type evt struct {
				pos     token.Pos
				key     string
				acquire bool
			}
			var evts []evt
			ast.Inspect(fd.Body, func(m ast.Node) bool {
				call, ok := m.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				switch sel.Sel.Name {
				case "Lock", "RLock":
					evts = append(evts, evt{call.Pos(), types.ExprString(sel.X), true})
				case "Unlock", "RUnlock":
					evts = append(evts, evt{call.Pos(), types.ExprString(sel.X), false})
				}
				return true
			})
			for i, a := range evts {
				if !a.acquire {
					continue
				}
				for _, b := range evts[i+1:] {
					if !b.acquire && b.key == a.key {
						out = append(out, window{a.pos, b.pos})
						break
					}
				}
			}
			return true
		})
	}
	return out
}

// inLockWindow reports whether pos lies inside any acknowledged window.
func inLockWindow(windows []window, _ []ast.Node, pos token.Pos) bool {
	for _, w := range windows {
		if w.lo <= pos && pos <= w.hi {
			return true
		}
	}
	return false
}

// shortFile trims the path to its final element for readable messages.
func shortFile(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[i+1:]
		}
	}
	return path
}
