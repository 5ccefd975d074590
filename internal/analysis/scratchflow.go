package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ScratchFlow is the interprocedural upgrade of scratchpair: a scratch
// buffer must reach a Put* on every path *even when the release happens
// in a callee*, and must never be retained past its release. Where
// scratchpair only pairs acquire/release calls it can see in one
// function body, scratchflow uses the call-graph summaries to know
// that:
//
//   - a callee releases the buffer passed to it (so the caller is
//     balanced without a visible Put — and, conversely, an early return
//     that skips the releasing call is still a leak);
//   - a callee *returns* a scratch-backed buffer (FreshResults), making
//     the caller responsible for releasing a buffer it never visibly
//     acquired;
//   - a buffer is retained past release: stored into a field, a global
//     or a parameter, captured by a spawned goroutine, or handed to a
//     callee that retains it, while this function (or a callee) also
//     releases it — a use-after-release race the pool cannot detect;
//   - ownership transfers are legitimate: returning the buffer, or
//     returning/storing a closure that performs the release, ends this
//     function's obligation.
//
// The scratch package itself is exempt — it is the implementation of
// the contract, not a client of it.
var ScratchFlow = &Analyzer{
	Name:       "scratchflow",
	Doc:        "scratch buffer leaks, or is retained past release, across call boundaries",
	RunProgram: runScratchFlow,
}

func runScratchFlow(pass *ProgramPass) {
	prog := pass.Prog
	// Pre-index literal children per node (List order keeps this
	// deterministic).
	children := make(map[*Node][]*Node)
	for _, n := range prog.Graph.List {
		if n.Parent != nil {
			children[n.Parent] = append(children[n.Parent], n)
		}
	}
	for _, n := range prog.Graph.List {
		if pathMatches(n.Pkg.ImportPath, scratchPkg) {
			continue
		}
		checkScratchFlow(pass, n, children[n])
	}
}

// sfAcquire is one buffer obligation in a unit.
type sfAcquire struct {
	pos      token.Pos
	desc     string // "scratch.Floats", or the callee's name for fresh-result acquires
	obj      types.Object
	deferred bool
	viaCall  bool // acquired through a callee's fresh result
}

// sfRelease is one release event.
type sfRelease struct {
	pos      token.Pos
	obj      types.Object // nil: anonymous (argument was not a plain identifier)
	deferred bool
	async    bool // performed by a spawned goroutine (position-independent, like deferred)
	desc     string
}

// sfRetain is one retention event.
type sfRetain struct {
	pos token.Pos
	obj types.Object
	how string
	// goCapture marks goroutine captures, which are exempt when the
	// same goroutine performs the release (an ownership handoff).
	goCapture bool
}

func checkScratchFlow(pass *ProgramPass, n *Node, lits []*Node) {
	body := n.Body()
	if body == nil {
		return
	}
	prog := pass.Prog
	info := n.Pkg.Info

	// Objects whose fields/elements count as escaping store targets:
	// this unit's (and enclosing units') parameters and receivers.
	escapeBases := make(map[types.Object]bool)
	for u := n; u != nil; u = u.Parent {
		for _, obj := range paramObjects(u) {
			if obj != nil {
				escapeBases[obj] = true
			}
		}
		if recv := recvObject(u); recv != nil {
			escapeBases[recv] = true
		}
	}

	var (
		acquires  []sfAcquire
		releases  []sfRelease
		retains   []sfRetain
		returns   []token.Pos
		transfers = make(map[types.Object]bool)
		claimed   = make(map[*ast.CallExpr]bool)
		anonymous []sfAcquire // acquires not bound to a variable
		objOf     = func(e ast.Expr) types.Object {
			if id, ok := ast.Unparen(e).(*ast.Ident); ok {
				return identObj(info, id)
			}
			return nil
		}
	)

	// freshCallee returns the callee name and fresh-result mask when a
	// call returns scratch-backed buffers (excluding the scratch package
	// itself, whose calls are classified directly).
	freshCallee := func(call *ast.CallExpr) (string, []bool) {
		for _, c := range prog.TargetsOf(call) {
			if pathMatches(c.Pkg.ImportPath, scratchPkg) {
				continue
			}
			cf := prog.FlowOf(c)
			if cf == nil {
				continue
			}
			for _, fresh := range cf.FreshResults {
				if fresh {
					return c.Name(), cf.FreshResults
				}
			}
		}
		return "", nil
	}

	recordCallEffects := func(call *ast.CallExpr, deferred bool) {
		// Direct scratch calls.
		if isScratchRelease(info, call) {
			found := false
			for _, arg := range call.Args {
				if obj := objOf(arg); obj != nil {
					releases = append(releases, sfRelease{call.Pos(), obj, deferred, false, "scratch.Put*"})
					found = true
				}
			}
			if !found {
				releases = append(releases, sfRelease{call.Pos(), nil, deferred, false, "scratch.Put*"})
			}
			return
		}
		if isScratchAcquire(info, call) && !claimed[call] {
			fn := calleeFunc(info, call)
			anonymous = append(anonymous, sfAcquire{call.Pos(), "scratch." + fn.Name(), nil, deferred, false})
			claimed[call] = true
			return
		}
		// Callee-summary effects on identifier arguments and receiver.
		targets := prog.TargetsOf(call)
		if len(targets) == 0 {
			return
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if obj := objOf(sel.X); obj != nil {
				for _, c := range targets {
					cf := prog.FlowOf(c)
					if cf == nil {
						continue
					}
					if cf.Recv.Released {
						releases = append(releases, sfRelease{call.Pos(), obj, deferred, false, c.Name()})
					}
					if cf.Recv.Retained {
						retains = append(retains, sfRetain{call.Pos(), obj, "passed as receiver to " + c.Name() + ", which retains it", false})
					}
				}
			}
		}
		for ai, arg := range call.Args {
			obj := objOf(arg)
			if obj == nil {
				// A fresh acquire passed directly to a releasing callee is
				// balanced in one expression.
				if inner, ok := ast.Unparen(arg).(*ast.CallExpr); ok && isScratchAcquire(info, inner) {
					for _, c := range targets {
						cf := prog.FlowOf(c)
						if cf == nil || len(cf.Params) == 0 {
							continue
						}
						pi := min(ai, len(cf.Params)-1)
						if cf.Params[pi].Released {
							claimed[inner] = true
						}
					}
				}
				continue
			}
			for _, c := range targets {
				cf := prog.FlowOf(c)
				if cf == nil || len(cf.Params) == 0 {
					continue
				}
				pi := min(ai, len(cf.Params)-1)
				if cf.Params[pi].Released {
					releases = append(releases, sfRelease{call.Pos(), obj, deferred, false, c.Name()})
				}
				if cf.Params[pi].Retained {
					retains = append(retains, sfRetain{call.Pos(), obj, "passed to " + c.Name() + ", which retains it", false})
				}
			}
		}
		// A scratch-backed result that is never bound leaks immediately.
		if !claimed[call] {
			if name, _ := freshCallee(call); name != "" {
				anonymous = append(anonymous, sfAcquire{call.Pos(), name, nil, deferred, true})
				claimed[call] = true
			}
		}
	}

	walkUnit(body, func(m ast.Node, deferred bool) {
		switch t := m.(type) {
		case *ast.AssignStmt:
			// Bind acquires to their variables before the call nodes are
			// visited.
			if len(t.Lhs) == len(t.Rhs) {
				for i, rhs := range t.Rhs {
					call, ok := ast.Unparen(rhs).(*ast.CallExpr)
					if !ok {
						continue
					}
					if isScratchAcquire(info, call) {
						fn := calleeFunc(info, call)
						acquires = append(acquires, sfAcquire{call.Pos(), "scratch." + fn.Name(), objOf(t.Lhs[i]), deferred, false})
						claimed[call] = true
					} else if name, fresh := freshCallee(call); name != "" && len(fresh) > 0 && fresh[0] {
						acquires = append(acquires, sfAcquire{call.Pos(), name, objOf(t.Lhs[i]), deferred, true})
						claimed[call] = true
					}
				}
			} else if len(t.Rhs) == 1 {
				if call, ok := ast.Unparen(t.Rhs[0]).(*ast.CallExpr); ok {
					if name, fresh := freshCallee(call); name != "" {
						for i, isFresh := range fresh {
							if isFresh && i < len(t.Lhs) {
								acquires = append(acquires, sfAcquire{call.Pos(), name, objOf(t.Lhs[i]), deferred, true})
							}
						}
						claimed[call] = true
					}
				}
			}
			// Escaping stores: a buffer written through a parameter,
			// receiver or global outlives this call.
			for i, lhs := range t.Lhs {
				base := storeBase(lhs)
				if base == nil {
					continue
				}
				baseObj := identObj(info, base)
				if baseObj == nil {
					continue
				}
				escaping := escapeBases[baseObj]
				if !escaping {
					if v, ok := baseObj.(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
						escaping = true
					}
				}
				if !escaping || i >= len(t.Rhs) && len(t.Rhs) != 1 {
					continue
				}
				rhs := t.Rhs[0]
				if len(t.Rhs) == len(t.Lhs) {
					rhs = t.Rhs[i]
				}
				if obj := objOf(rhs); obj != nil {
					retains = append(retains, sfRetain{t.Pos(), obj, "stored through " + base.Name + " (escapes this function)", false})
				}
			}
		case *ast.CallExpr:
			recordCallEffects(t, deferred)
		case *ast.ReturnStmt:
			if !deferred {
				returns = append(returns, t.Pos())
				for _, res := range t.Results {
					if obj := objOf(res); obj != nil {
						transfers[obj] = true
					}
					if call, ok := ast.Unparen(res).(*ast.CallExpr); ok && isScratchAcquire(info, call) {
						claimed[call] = true // returned directly: ownership transfers
					}
				}
			}
		case *ast.GoStmt:
			ast.Inspect(t.Call, func(q ast.Node) bool {
				if id, ok := q.(*ast.Ident); ok {
					if obj := identObj(info, id); obj != nil {
						retains = append(retains, sfRetain{t.Pos(), obj, "captured by a goroutine spawned here", true})
					}
				}
				return true
			})
		}
	})

	// Nested literals that release a captured buffer: the incoming edge
	// kind decides the meaning. A deferred literal is already covered by
	// walkUnit; a go-spawned literal releases asynchronously (handoff);
	// a referenced (returned/stored) literal is a release-closure —
	// ownership transfers to whoever runs it.
	for _, lit := range lits {
		var kind EdgeKind = EdgeRef
		for _, e := range n.Edges {
			if e.Callee == lit {
				kind = e.Kind
				break
			}
		}
		if kind == EdgeDefer {
			continue
		}
		ast.Inspect(lit.Lit.Body, func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok || !isScratchRelease(info, call) {
				return true
			}
			for _, arg := range call.Args {
				obj := objOf(arg)
				if obj == nil {
					continue
				}
				switch kind {
				case EdgeGo:
					releases = append(releases, sfRelease{lit.Lit.Pos(), obj, false, true, "a spawned goroutine"})
				case EdgeCall:
					releases = append(releases, sfRelease{lit.Lit.Pos(), obj, false, false, "an invoked closure"})
				default: // EdgeRef: release-closure handed out
					transfers[obj] = true
				}
			}
			return true
		})
	}

	report := func(acq sfAcquire) {
		origin := acq.desc
		if acq.viaCall {
			origin = "scratch buffer obtained via " + acq.desc
		}
		rels := matchedReleases(releases, acq.obj)
		if len(rels) == 0 {
			pass.Reportf(acq.pos, "%s has no release reachable from this function, even across calls; the buffer leaks from the pool (release it, hand it to a releasing callee, or //dpzlint:ignore scratchflow if ownership transfers)", origin)
			return
		}
		// Early-return check: a non-deferred, non-async release can be
		// skipped by a return between acquire and release.
		covered := false
		var firstSync *sfRelease
		for i := range rels {
			if rels[i].deferred || rels[i].async {
				covered = true
				break
			}
			if firstSync == nil || rels[i].pos < firstSync.pos {
				firstSync = &rels[i]
			}
		}
		if !covered && firstSync != nil {
			for _, ret := range returns {
				if ret > acq.pos && ret < firstSync.pos {
					retLine := pass.Fset().Position(ret).Line
					relLine := pass.Fset().Position(firstSync.pos).Line
					pass.Reportf(acq.pos, "%s is not released on the early return at line %d (the release via %s at line %d is skipped); defer the release or release before returning", origin, retLine, firstSync.desc, relLine)
					break
				}
			}
		}
		// Retention past release. A goroutine capture is exempt when an
		// async release exists — the goroutine that captured the buffer
		// is the one releasing it (a handoff, not a race).
		asyncRelease := false
		for _, r := range rels {
			if r.async {
				asyncRelease = true
				break
			}
		}
		if acq.obj != nil {
			for _, rt := range retains {
				if rt.obj != acq.obj || (rt.goCapture && asyncRelease) {
					continue
				}
				pass.Reportf(rt.pos, "scratch buffer from %s is %s while this function also releases it; the retained reference dangles once the pool reuses the buffer", acq.desc, rt.how)
			}
		}
	}

	for _, acq := range acquires {
		if acq.obj != nil && transfers[acq.obj] {
			continue // ownership handed to the caller or a release-closure
		}
		if acq.obj == nil {
			anonymous = append(anonymous, acq)
			continue
		}
		report(acq)
	}
	// Anonymous acquires: pair against anonymous releases in order, like
	// scratchpair.
	anonRel := make([]bool, len(releases))
	for _, acq := range anonymous {
		matched := false
		for i := range releases {
			if releases[i].obj != nil || anonRel[i] {
				continue
			}
			if releases[i].deferred || releases[i].async || releases[i].pos > acq.pos {
				anonRel[i] = true
				matched = true
				break
			}
		}
		if !matched {
			origin := acq.desc
			if acq.viaCall {
				origin = "scratch buffer obtained via " + acq.desc
			}
			pass.Reportf(acq.pos, "%s has no release reachable from this function, even across calls; the buffer leaks from the pool (release it, hand it to a releasing callee, or //dpzlint:ignore scratchflow if ownership transfers)", origin)
		}
	}
}

// matchedReleases filters releases for one buffer object.
func matchedReleases(releases []sfRelease, obj types.Object) []sfRelease {
	if obj == nil {
		return nil
	}
	var out []sfRelease
	for _, r := range releases {
		if r.obj == obj {
			out = append(out, r)
		}
	}
	return out
}
