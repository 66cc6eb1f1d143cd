// Package lockpath implements the dequevet analyzer that checks the
// hand-rolled locking protocols of the DCAS emulation (internal/dcas) and
// their inlined call sites (internal/core/arraydeque): every acquire must
// be released on every control-flow path, and nothing that can block,
// yield, or allocate may run inside a spin window — the two properties the
// PR-1 substrate's correctness argument (DESIGN.md §6) assumes but nothing
// previously checked mechanically.
//
// Recognized protocols (matched structurally by method name and receiver
// type name, so fixture packages can model them without importing
// internal/dcas):
//
//   - mutex style: Lock/TryLock/Unlock (and RLock/RUnlock) on sync.Mutex,
//     sync.RWMutex, or any type whose name contains "spinlock"
//     (case-insensitive).  Spinlock windows are "spin windows".
//   - anchor-mark style: the EndLock protocol.  A conditional acquire is
//     either a mark(a1, o1) call on a type whose name contains "endlock",
//     or an inlined X.RawCAS(o, o|EndLockBit) / X.CompareAndSwap(o,
//     o|EndLockBit) whose second argument sets a constant named
//     EndLockBit; the window closes at X.Store/X.RawStore.  Spin window.
//
// The analysis is an abstract interpretation over structured control flow:
// held-lock sets are propagated through if/else, switch, select, and
// loops; branches must agree at join points; loops must preserve the
// lock state across an iteration; and every return — and the implicit
// return at the end of the function — must hold nothing.  panic is an
// accepted exit (the process dies; no convoy outlives it).
//
// Inside a spin window only raw atomic operations (Load, Store, RawStore,
// RawCAS, CompareAndSwap, Add, Swap, And, Or), conversions, and builtins
// are allowed: channel operations, select, go, allocation (make/append/
// new), and any other function call are reported, because a preempted or
// blocked spin-window holder convoys every waiter behind it.  Mutex
// windows (parking locks) are exempt from the blocking check — parking is
// what they are for — but not from the balance check.
//
// Functions that intentionally transfer lock ownership to their caller
// declare it:
//
//	//dequevet:lockpath-transfers a1.lk a2.lk
//
// names the locks (in parameter terms) held when the function returns.
// Call sites then book the acquisition with the caller's argument
// expressions substituted; a bool-returning transfer function is treated
// as a conditional acquire (held only when the bool result is true), and
// its own body is exempt from the balance check, which cannot express
// "held iff result".  //dequevet:lockpath-ignore skips a function
// entirely (escape hatch of last resort; unused in this repository).
package lockpath

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"dcasdeque/internal/analysis/framework"
)

// Analyzer is the lockpath analyzer.
var Analyzer = &framework.Analyzer{
	Name: "lockpath",
	Doc: "check that every mutex/spinlock/endlock acquire is released on all " +
		"control-flow paths and that spin windows contain only raw atomic operations",
	Run: run,
}

// Directive names.
const (
	dirTransfers = "lockpath-transfers"
	dirIgnore    = "lockpath-ignore"
)

// lockInfo is one held lock.
type lockInfo struct {
	pos  token.Pos // acquire site
	spin bool      // true for spin windows (blocking check applies)
}

// state maps lock key (a canonical expression spelling) to its info.
type state map[string]lockInfo

func (s state) clone() state {
	out := make(state, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

func (s state) anySpin() bool {
	for _, v := range s {
		if v.spin {
			return true
		}
	}
	return false
}

func (s state) equal(o state) bool {
	if len(s) != len(o) {
		return false
	}
	for k := range s {
		if _, ok := o[k]; !ok {
			return false
		}
	}
	return true
}

// opKind classifies a call's effect on the lock state.
type opKind int

const (
	opNone opKind = iota
	opAcquire
	opCondAcquire
	opRelease
)

// lockOp is a classified call.
type lockOp struct {
	kind opKind
	keys []string
	spin bool
	pos  token.Pos // acquire site, for conditional acquires carried in pending
}

// checker carries the per-function analysis context.
type checker struct {
	pass     *framework.Pass
	dirs     *framework.Directives
	decls    map[*types.Func]*ast.FuncDecl
	reported map[token.Pos]bool
	// pending maps a bool variable name to the conditional acquisition
	// whose outcome it carries.
	pending map[string]lockOp
}

func run(pass *framework.Pass) (any, error) {
	c := &checker{
		pass:     pass,
		dirs:     framework.NewDirectives(pass.Fset, pass.Files),
		decls:    map[*types.Func]*ast.FuncDecl{},
		reported: map[token.Pos]bool{},
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					c.decls[fn] = fd
				}
			}
		}
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			c.checkFunc(fd)
		}
		// Function literals are separate execution contexts.
		ast.Inspect(f, func(n ast.Node) bool {
			if fl, ok := n.(*ast.FuncLit); ok {
				c.pending = map[string]lockOp{}
				out, term := c.walkBlock(fl.Body.List, state{})
				if !term {
					c.checkBalanced(out, fl.Body.End(), nil)
				}
			}
			return true
		})
	}
	return nil, nil
}

// checkFunc analyzes one declared function.
func (c *checker) checkFunc(fd *ast.FuncDecl) {
	if hasDirective(fd.Doc, dirIgnore) {
		return
	}
	expected := c.transferKeys(fd)
	if expected != nil && returnsBool(fd) {
		// Conditional transfer: held-iff-result is outside the abstract
		// domain; the contract is checked at every call site instead.
		return
	}
	c.pending = map[string]lockOp{}
	out, term := c.walkBlock(fd.Body.List, state{})
	if !term {
		c.checkBalanced(out, fd.Body.End(), expected)
	}
}

// checkBalanced reports held locks at a function exit, minus the declared
// transfer set.
func (c *checker) checkBalanced(st state, end token.Pos, expected []string) {
	exp := map[string]bool{}
	for _, k := range expected {
		exp[k] = true
	}
	for k, info := range st {
		if exp[k] {
			delete(exp, k)
			continue
		}
		c.reportOnce(info.pos, "lock %s acquired here is still held when the function returns", k)
	}
	for k := range exp {
		c.reportOnce(end, "declared transfer lock %s is not held at function exit", k)
	}
}

// walkBlock interprets a statement list.  It returns the out state and
// whether every path through the list terminates (return/panic).
func (c *checker) walkBlock(stmts []ast.Stmt, st state) (state, bool) {
	for _, s := range stmts {
		var term bool
		st, term = c.walkStmt(s, st)
		if term {
			return st, true
		}
	}
	return st, false
}

func (c *checker) walkStmt(s ast.Stmt, st state) (state, bool) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			if op := c.classifyCall(call); op.kind != opNone {
				switch op.kind {
				case opAcquire:
					for _, k := range op.keys {
						st[k] = lockInfo{pos: call.Pos(), spin: op.spin}
					}
				case opRelease:
					for _, k := range op.keys {
						delete(st, k)
					}
				case opCondAcquire:
					// Result discarded: the caller cannot know whether it
					// holds the lock.
					c.reportOnce(call.Pos(), "conditional acquire with discarded result")
				}
				return st, false
			}
			if c.isTerminator(call) {
				return st, true
			}
		}
		c.checkBlocking(s.X, st)
		return st, false

	case *ast.AssignStmt:
		return c.walkAssign(s, st), false

	case *ast.DeclStmt:
		c.checkBlocking(s, st)
		return st, false

	case *ast.IncDecStmt:
		c.checkBlocking(s.X, st)
		return st, false

	case *ast.DeferStmt:
		c.applyDeferredReleases(s.Call, st)
		return st, false

	case *ast.ReturnStmt:
		c.checkBlocking(s, st)
		for k, info := range st {
			c.reportOnce(s.Pos(), "return leaves lock %s held (acquired at %s)", k, c.pos(info.pos))
		}
		return st, true

	case *ast.BranchStmt:
		// break/continue/goto: stop interpreting this path.  The loop
		// preservation check below bounds what a mid-loop exit can hide.
		return st, true

	case *ast.BlockStmt:
		return c.walkBlock(s.List, st)

	case *ast.LabeledStmt:
		return c.walkStmt(s.Stmt, st)

	case *ast.IfStmt:
		return c.walkIf(s, st)

	case *ast.ForStmt:
		if s.Init != nil {
			st, _ = c.walkStmt(s.Init, st)
		}
		if s.Cond != nil {
			c.checkBlocking(s.Cond, st)
		}
		c.walkLoopBody(s.Body, st)
		return st, false

	case *ast.RangeStmt:
		c.checkBlocking(s.X, st)
		c.walkLoopBody(s.Body, st)
		return st, false

	case *ast.SwitchStmt, *ast.TypeSwitchStmt:
		return c.walkSwitch(s, st)

	case *ast.SelectStmt:
		if st.anySpin() {
			c.reportOnce(s.Pos(), "select statement inside spin window")
		}
		for _, cc := range s.Body.List {
			if comm, ok := cc.(*ast.CommClause); ok {
				c.walkBlock(comm.Body, st.clone())
			}
		}
		return st, false

	case *ast.GoStmt:
		if st.anySpin() {
			c.reportOnce(s.Pos(), "goroutine launch inside spin window")
		}
		return st, false

	case *ast.SendStmt:
		if st.anySpin() {
			c.reportOnce(s.Pos(), "channel send inside spin window")
		}
		return st, false

	default:
		return st, false
	}
}

// walkAssign handles assignments: they may bind a conditional-acquire
// result to a bool variable, and their expressions are subject to the
// spin-window check.
func (c *checker) walkAssign(s *ast.AssignStmt, st state) state {
	// Reassigning a variable invalidates any pending binding it carried.
	for _, lhs := range s.Lhs {
		if id, ok := lhs.(*ast.Ident); ok {
			delete(c.pending, id.Name)
		}
	}
	if len(s.Rhs) == 1 {
		if call, ok := ast.Unparen(s.Rhs[0]).(*ast.CallExpr); ok {
			if op := c.classifyCall(call); op.kind != opNone {
				op.pos = call.Pos()
				switch op.kind {
				case opAcquire:
					for _, k := range op.keys {
						st[k] = lockInfo{pos: call.Pos(), spin: op.spin}
					}
				case opRelease:
					for _, k := range op.keys {
						delete(st, k)
					}
				case opCondAcquire:
					if v := boolTarget(c.pass, s.Lhs); v != "" {
						c.pending[v] = op
					}
				}
				return st
			}
		}
	}
	c.checkBlocking(s, st)
	return st
}

// walkIf interprets an if statement, understanding three condition forms:
// a direct conditional acquire, a negated one, and a bool variable (or its
// negation) bound earlier to a conditional acquire.
func (c *checker) walkIf(s *ast.IfStmt, st state) (state, bool) {
	if s.Init != nil {
		st, _ = c.walkStmt(s.Init, st)
	}

	thenSt, elseSt := st.clone(), st.clone()
	cond := ast.Unparen(s.Cond)
	neg := false
	if u, ok := cond.(*ast.UnaryExpr); ok && u.Op == token.NOT {
		cond, neg = ast.Unparen(u.X), true
	}
	var op lockOp
	if call, ok := cond.(*ast.CallExpr); ok {
		if o := c.classifyCall(call); o.kind == opCondAcquire {
			op = o
			op.pos = call.Pos()
		} else {
			c.checkBlocking(s.Cond, st)
		}
	} else if id, ok := cond.(*ast.Ident); ok {
		if o, ok := c.pending[id.Name]; ok {
			op = o
			delete(c.pending, id.Name)
		}
	} else {
		c.checkBlocking(s.Cond, st)
	}
	if op.kind == opCondAcquire {
		held := thenSt
		if neg {
			held = elseSt
		}
		for _, k := range op.keys {
			held[k] = lockInfo{pos: op.pos, spin: op.spin}
		}
	}

	thenOut, thenTerm := c.walkBlock(s.Body.List, thenSt)
	var elseOut state
	elseTerm := false
	switch e := s.Else.(type) {
	case *ast.BlockStmt:
		elseOut, elseTerm = c.walkBlock(e.List, elseSt)
	case *ast.IfStmt:
		elseOut, elseTerm = c.walkIf(e, elseSt)
	default:
		elseOut = elseSt
	}

	switch {
	case thenTerm && elseTerm:
		return st, true
	case thenTerm:
		return elseOut, false
	case elseTerm:
		return thenOut, false
	}
	return c.join(s, thenOut, elseOut), false
}

// join merges two branch states; a lock held on only one branch is
// reported.
func (c *checker) join(s *ast.IfStmt, thenOut, elseOut state) state {
	if thenOut.equal(elseOut) {
		return thenOut
	}
	out := state{}
	for k, v := range thenOut {
		if _, ok := elseOut[k]; ok {
			out[k] = v
			continue
		}
		c.reportOnce(v.pos, "lock %s is held on only one branch of the if statement at %s", k, c.pos(s.Pos()))
	}
	for k, v := range elseOut {
		if _, ok := thenOut[k]; !ok {
			c.reportOnce(v.pos, "lock %s is held on only one branch of the if statement at %s", k, c.pos(s.Pos()))
		}
	}
	return out
}

// walkSwitch interprets switch statements; all cases must agree.
func (c *checker) walkSwitch(s ast.Stmt, st state) (state, bool) {
	var body *ast.BlockStmt
	hasDefault := false
	switch s := s.(type) {
	case *ast.SwitchStmt:
		if s.Tag != nil {
			c.checkBlocking(s.Tag, st)
		}
		body = s.Body
	case *ast.TypeSwitchStmt:
		body = s.Body
	}
	var outs []state
	allTerm := true
	for _, cc := range body.List {
		clause, ok := cc.(*ast.CaseClause)
		if !ok {
			continue
		}
		if clause.List == nil {
			hasDefault = true
		}
		out, term := c.walkBlock(clause.Body, st.clone())
		if !term {
			allTerm = false
			outs = append(outs, out)
		}
	}
	if !hasDefault {
		allTerm = false
		outs = append(outs, st)
	}
	if allTerm {
		return st, true
	}
	for _, out := range outs[1:] {
		if !out.equal(outs[0]) {
			for k, v := range out {
				if _, ok := outs[0][k]; !ok {
					c.reportOnce(v.pos, "lock %s is held on only some cases of the switch at %s", k, c.pos(s.Pos()))
				}
			}
			for k, v := range outs[0] {
				if _, ok := out[k]; !ok {
					c.reportOnce(v.pos, "lock %s is held on only some cases of the switch at %s", k, c.pos(s.Pos()))
				}
			}
		}
	}
	return outs[0], false
}

// walkLoopBody checks that one iteration preserves the lock state.
func (c *checker) walkLoopBody(body *ast.BlockStmt, st state) {
	out, term := c.walkBlock(body.List, st.clone())
	if term {
		return
	}
	for k, v := range out {
		if _, ok := st[k]; !ok {
			c.reportOnce(v.pos, "lock %s acquired inside the loop body is still held when the iteration ends", k)
		}
	}
	for k, v := range st {
		if _, ok := out[k]; !ok {
			c.reportOnce(v.pos, "lock %s held at loop entry is released inside the loop body", k)
		}
	}
}

// applyDeferredReleases scans a deferred call (or function literal) for
// releases and applies them immediately: a deferred unlock covers every
// subsequent exit path.
func (c *checker) applyDeferredReleases(call *ast.CallExpr, st state) {
	apply := func(inner *ast.CallExpr) {
		if op := c.classifyCall(inner); op.kind == opRelease {
			for _, k := range op.keys {
				delete(st, k)
			}
		}
	}
	apply(call)
	if fl, ok := call.Fun.(*ast.FuncLit); ok {
		ast.Inspect(fl.Body, func(n ast.Node) bool {
			if inner, ok := n.(*ast.CallExpr); ok {
				apply(inner)
			}
			return true
		})
	}
}

// checkBlocking reports blocking, allocating, and unclassified calls in
// the expression tree when the current state contains a spin window.
func (c *checker) checkBlocking(n ast.Node, st state) {
	if !st.anySpin() {
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			return false // runs later, in its own context
		case *ast.UnaryExpr:
			if m.Op == token.ARROW {
				c.reportOnce(m.Pos(), "channel receive inside spin window")
			}
		case *ast.CallExpr:
			if c.allowedInSpinWindow(m) {
				return true
			}
			c.reportOnce(m.Pos(), "call to %s inside spin window (only raw atomic operations may run while a spin lock is held)",
				types.ExprString(m.Fun))
			return true
		}
		return true
	})
}

// atomicMethodNames are the raw memory operations permitted inside a spin
// window.
var atomicMethodNames = map[string]bool{
	"Load": true, "Store": true, "RawStore": true, "RawCAS": true,
	"CAS": true, "Add": true, "Swap": true, "And": true, "Or": true,
}

// allowedInSpinWindow reports whether the call may execute while spinning.
func (c *checker) allowedInSpinWindow(call *ast.CallExpr) bool {
	// Type conversions never execute code.
	if tv, ok := c.pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		return true
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if b, ok := c.pass.TypesInfo.Uses[fun].(*types.Builtin); ok {
			switch b.Name() {
			case "make", "append", "new":
				c.reportOnce(call.Pos(), "allocation (%s) inside spin window", b.Name())
				return true // already reported, more specifically
			}
			return true // len, cap, panic, ...
		}
	case *ast.SelectorExpr:
		name := fun.Sel.Name
		if atomicMethodNames[name] || strings.HasPrefix(name, "CompareAndSwap") {
			return true
		}
		// Releases and nested tracked acquires are handled by the state
		// machine, not reported as blocking.
		if op := c.classifyCall(call); op.kind != opNone {
			return true
		}
	}
	return false
}

// classifyCall maps a call to its lock-state effect.
func (c *checker) classifyCall(call *ast.CallExpr) lockOp {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		// Plain function call: only the transfer-directive lookup applies.
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if fn, ok := c.pass.TypesInfo.Uses[id].(*types.Func); ok {
				return c.transferOp(fn, call)
			}
		}
		return lockOp{}
	}
	name := sel.Sel.Name
	recvStr := types.ExprString(sel.X)
	tn := receiverTypeName(c.pass, sel.X)

	spinMutex := strings.Contains(strings.ToLower(tn), "spinlock")
	mutexLike := spinMutex || ((tn == "Mutex" || tn == "RWMutex") && receiverFromSync(c.pass, sel.X))

	if mutexLike {
		switch name {
		case "Lock":
			return lockOp{kind: opAcquire, keys: []string{recvStr}, spin: spinMutex}
		case "TryLock":
			return lockOp{kind: opCondAcquire, keys: []string{recvStr}, spin: spinMutex}
		case "Unlock":
			return lockOp{kind: opRelease, keys: []string{recvStr}}
		case "RLock":
			return lockOp{kind: opAcquire, keys: []string{recvStr + "#r"}, spin: spinMutex}
		case "TryRLock":
			return lockOp{kind: opCondAcquire, keys: []string{recvStr + "#r"}, spin: spinMutex}
		case "RUnlock":
			return lockOp{kind: opRelease, keys: []string{recvStr + "#r"}}
		}
	}

	if strings.Contains(strings.ToLower(tn), "endlock") && (name == "mark" || name == "Mark") && len(call.Args) >= 1 {
		return lockOp{kind: opCondAcquire, keys: []string{types.ExprString(call.Args[0]) + ".v"}, spin: true}
	}

	// Inlined anchor mark: X.RawCAS(o, o|EndLockBit).
	if (name == "RawCAS" || strings.HasPrefix(name, "CompareAndSwap")) && len(call.Args) == 2 {
		if setsEndLockBit(c.pass, call.Args[1]) {
			return lockOp{kind: opCondAcquire, keys: []string{recvStr}, spin: true}
		}
	}

	// Anchor commit/restore: X.Store / X.RawStore closes an anchor window
	// keyed either X or X's parent (a1.v.Store releases a window keyed
	// a1.v; d.r.RawStore releases one keyed d.r).
	if name == "Store" || name == "RawStore" {
		return lockOp{kind: opRelease, keys: []string{recvStr}}
	}

	// Ownership-transferring helper declared in this package.
	if fn, ok := c.pass.TypesInfo.Uses[sel.Sel].(*types.Func); ok {
		return c.transferOp(fn, call)
	}
	return lockOp{}
}

// transferOp books a call to a lockpath-transfers-annotated function.
func (c *checker) transferOp(fn *types.Func, call *ast.CallExpr) lockOp {
	fd := c.decls[fn]
	if fd == nil {
		return lockOp{}
	}
	keys := c.transferKeys(fd)
	if keys == nil {
		return lockOp{}
	}
	sub := substituteParams(fd, call, keys)
	if returnsBool(fd) {
		return lockOp{kind: opCondAcquire, keys: sub, spin: true}
	}
	return lockOp{kind: opAcquire, keys: sub, spin: true}
}

// transferKeys returns the declared lockpath-transfers keys, or nil.
func (c *checker) transferKeys(fd *ast.FuncDecl) []string {
	return directiveArgs(fd.Doc, dirTransfers)
}

// substituteParams rewrites declared keys from parameter names to the
// caller's argument spellings: key "a1.lk" with parameter a1 bound to
// argument &d.l becomes "&d.l.lk".
func substituteParams(fd *ast.FuncDecl, call *ast.CallExpr, keys []string) []string {
	params := []string{}
	for _, f := range fd.Type.Params.List {
		for _, n := range f.Names {
			params = append(params, n.Name)
		}
	}
	out := make([]string, 0, len(keys))
	for _, k := range keys {
		head, rest, _ := strings.Cut(k, ".")
		sub := k
		for i, p := range params {
			if p == head && i < len(call.Args) {
				sub = types.ExprString(call.Args[i])
				if rest != "" {
					sub += "." + rest
				}
				break
			}
		}
		out = append(out, sub)
	}
	return out
}

// returnsBool reports whether any result of fd is of type bool.
func returnsBool(fd *ast.FuncDecl) bool {
	if fd.Type.Results == nil {
		return false
	}
	for _, r := range fd.Type.Results.List {
		if id, ok := r.Type.(*ast.Ident); ok && id.Name == "bool" {
			return true
		}
	}
	return false
}

// typeOf resolves an expression's type, falling back to the identifier
// object when the expression itself has no Types entry.
func typeOf(pass *framework.Pass, e ast.Expr) types.Type {
	if tv, ok := pass.TypesInfo.Types[e]; ok {
		return tv.Type
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := pass.TypesInfo.Uses[id]; obj != nil {
			return obj.Type()
		}
		if obj := pass.TypesInfo.Defs[id]; obj != nil {
			return obj.Type()
		}
	}
	return nil
}

// namedType returns the named type behind e (dereferencing one pointer
// level), or nil.
func namedType(pass *framework.Pass, e ast.Expr) *types.Named {
	t := typeOf(pass, e)
	if t == nil {
		return nil
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named
	}
	return nil
}

// receiverTypeName resolves the named type of an expression's (possibly
// pointed-to) type, or "".
func receiverTypeName(pass *framework.Pass, e ast.Expr) string {
	if named := namedType(pass, e); named != nil {
		return named.Obj().Name()
	}
	return ""
}

// receiverFromSync reports whether e's named type is declared in sync.
func receiverFromSync(pass *framework.Pass, e ast.Expr) bool {
	named := namedType(pass, e)
	if named == nil {
		return false
	}
	pkg := named.Obj().Pkg()
	return pkg != nil && pkg.Path() == "sync"
}

// setsEndLockBit reports whether e is an OR expression with an operand
// resolving to a constant named EndLockBit.
func setsEndLockBit(pass *framework.Pass, e ast.Expr) bool {
	b, ok := ast.Unparen(e).(*ast.BinaryExpr)
	if !ok || b.Op != token.OR {
		return false
	}
	for _, side := range []ast.Expr{b.X, b.Y} {
		var id *ast.Ident
		switch s := ast.Unparen(side).(type) {
		case *ast.Ident:
			id = s
		case *ast.SelectorExpr:
			id = s.Sel
		default:
			continue
		}
		if con, ok := pass.TypesInfo.Uses[id].(*types.Const); ok && con.Name() == "EndLockBit" {
			return true
		}
	}
	return false
}

// boolTarget picks the assigned bool variable carrying a conditional
// acquire's outcome.
func boolTarget(pass *framework.Pass, lhs []ast.Expr) string {
	for _, e := range lhs {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		obj := pass.TypesInfo.Defs[id]
		if obj == nil {
			obj = pass.TypesInfo.Uses[id]
		}
		if obj == nil {
			continue
		}
		if basic, ok := obj.Type().Underlying().(*types.Basic); ok && basic.Kind() == types.Bool {
			return id.Name
		}
	}
	return ""
}

// terminatorNames are method/function names whose call never returns:
// the statement list past them is unreachable, and a lock held across
// them is not a leaked window (the goroutine or process is gone).
var terminatorNames = map[string]bool{
	"Fatal": true, "Fatalf": true, "Fatalln": true, "FailNow": true,
	"Skip": true, "Skipf": true, "SkipNow": true,
	"Goexit": true, "Exit": true,
}

// isTerminator reports whether the call never returns: the panic builtin,
// testing's Fatal/Skip family, runtime.Goexit, os.Exit.
func (c *checker) isTerminator(call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		b, ok := c.pass.TypesInfo.Uses[fun].(*types.Builtin)
		return ok && b.Name() == "panic"
	case *ast.SelectorExpr:
		return terminatorNames[fun.Sel.Name]
	}
	return false
}

// hasDirective reports whether the comment group carries the directive.
func hasDirective(doc *ast.CommentGroup, name string) bool {
	return directiveArgs(doc, name) != nil
}

// directiveArgs returns the space-separated arguments of a
// `//dequevet:<name> args...` line in doc, nil if absent, and an empty
// (non-nil) slice for a bare directive.
func directiveArgs(doc *ast.CommentGroup, name string) []string {
	if doc == nil {
		return nil
	}
	for _, cmt := range doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(cmt.Text, "//"))
		if !strings.HasPrefix(text, "dequevet:"+name) {
			continue
		}
		rest := strings.TrimPrefix(text, "dequevet:"+name)
		if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
			continue // longer directive name
		}
		return strings.Fields(rest)
	}
	return nil
}

// reportOnce deduplicates diagnostics by position.
func (c *checker) reportOnce(pos token.Pos, format string, args ...any) {
	if c.reported[pos] {
		return
	}
	c.reported[pos] = true
	c.pass.Reportf(pos, format, args...)
}

// pos formats a position for inclusion in a message.
func (c *checker) pos(p token.Pos) string {
	position := c.pass.Fset.Position(p)
	parts := strings.Split(position.Filename, "/")
	return parts[len(parts)-1] + ":" + itoa(position.Line)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
