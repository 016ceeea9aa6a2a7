package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// handlercheck keeps the message-dispatch surface exhaustive as MsgTypes
// multiply (8 new ones in PRs 6–8 alone):
//
//   - every MsgType constant declared in the transport package is
//     handled in at least one dispatch switch somewhere in the program,
//     or carries a `//lint:dispatch <reason>` annotation explaining why
//     it never reaches a dispatcher (peer-only types, acks consumed
//     inline);
//   - every dispatch switch has a default arm — an unknown type must be
//     released and counted, never silently dropped by fallthrough;
//   - in a dispatch over a received pooled message, every case body
//     touches the message variable (a case that never mentions the
//     message cannot have released or forwarded it).
//
// A dispatch switch is a switch whose cases name three or more distinct
// MsgType constants. Two-case switches are filters (a receive loop
// peeling off MsgView before handing the rest downstream), not
// dispatchers, and are exempt from the default-arm and
// touch-the-message rules.

// HandlerCheck returns the handlercheck analyzer.
func HandlerCheck() *Analyzer {
	return &Analyzer{
		Name: "handlercheck",
		Doc:  "every MsgType reaches a dispatch switch; dispatches have default arms and release or forward each message",
		Run:  runHandlerCheck,
	}
}

// isMsgType reports whether t is transport.MsgType (or a fixture
// package's own MsgType — golden tests for the exhaustiveness inventory
// need a declaring package they control).
func isMsgType(t types.Type) bool {
	path, name := namedTypePath(t)
	return name == "MsgType" &&
		(hasPathSuffix(path, "internal/transport") || strings.HasPrefix(path, "fixture/"))
}

// msgTypeConst resolves e to a MsgType constant object, or nil.
func msgTypeConst(info *types.Info, e ast.Expr) *types.Const {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		// Qualified reference: transport.MsgPush.
		sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
		if !ok {
			return nil
		}
		id = sel.Sel
	}
	c, ok := info.Uses[id].(*types.Const)
	if !ok || !isMsgType(c.Type()) {
		return nil
	}
	return c
}

// msgSwitch is one switch over a MsgType value.
type msgSwitch struct {
	stmt       *ast.SwitchStmt
	cases      map[string]bool // distinct MsgType constant names
	hasDefault bool
	// msgVar is the received message the tag selects on (tag of the
	// form m.Type for a *transport.Message m), nil for switches over a
	// bare MsgType value.
	msgVar *types.Var
}

// collectMsgSwitches finds every MsgType switch in the unit.
func collectMsgSwitches(pkg *Package) []*msgSwitch {
	info := pkg.Info
	var out []*msgSwitch
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok || sw.Tag == nil {
				return true
			}
			tv, ok := info.Types[sw.Tag]
			if !ok || !isMsgType(tv.Type) {
				return true
			}
			ms := &msgSwitch{stmt: sw, cases: make(map[string]bool)}
			if sel, ok := ast.Unparen(sw.Tag).(*ast.SelectorExpr); ok && sel.Sel.Name == "Type" {
				if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
					if v, ok := info.Uses[id].(*types.Var); ok && isMessagePtr(v.Type()) {
						ms.msgVar = v
					}
				}
			}
			for _, c := range sw.Body.List {
				cc, ok := c.(*ast.CaseClause)
				if !ok {
					continue
				}
				if cc.List == nil {
					ms.hasDefault = true
					continue
				}
				for _, e := range cc.List {
					if mc := msgTypeConst(info, e); mc != nil {
						ms.cases[mc.Name()] = true
					}
				}
			}
			out = append(out, ms)
			return true
		})
	}
	return out
}

// isDispatch: three or more distinct MsgType cases.
func (ms *msgSwitch) isDispatch() bool { return len(ms.cases) >= 3 }

func runHandlerCheck(pass *Pass) {
	info := pass.Pkg.Info
	switches := collectMsgSwitches(pass.Pkg)

	for _, ms := range switches {
		if !ms.isDispatch() {
			continue
		}
		pos := ms.stmt.Pos()
		if !ms.hasDefault {
			if pass.Pkg.IsTestPos(pos) {
				pass.Warnf("handlercheck", pos,
					"dispatch switch over %d message types has no default arm: unknown types must be released and counted, not dropped", len(ms.cases))
			} else {
				pass.Reportf("handlercheck", pos,
					"dispatch switch over %d message types has no default arm: unknown types must be released and counted, not dropped", len(ms.cases))
			}
		}
		if ms.msgVar == nil {
			continue
		}
		for _, c := range ms.stmt.Body.List {
			cc, ok := c.(*ast.CaseClause)
			if !ok || cc.List == nil {
				continue
			}
			if !bodyMentionsVar(info, cc.Body, ms.msgVar) {
				names := make([]string, 0, len(cc.List))
				for _, e := range cc.List {
					if mc := msgTypeConst(info, e); mc != nil {
						names = append(names, mc.Name())
					}
				}
				msg := "dispatch case %s never touches the received message: it can neither release nor forward it"
				if pass.Pkg.IsTestPos(cc.Pos()) {
					pass.Warnf("handlercheck", cc.Pos(), msg, strings.Join(names, ", "))
				} else {
					pass.Reportf("handlercheck", cc.Pos(), msg, strings.Join(names, ", "))
				}
			}
		}
	}

	// The exhaustiveness inventory runs once, on the unit that declares
	// MsgType itself (skipping the external-test view of it).
	if strings.HasSuffix(pass.Pkg.Path, "_test") {
		return
	}
	if obj := pass.Pkg.Types.Scope().Lookup("MsgType"); obj == nil || !isMsgType(obj.Type()) {
		return
	}
	runHandlerInventory(pass)
}

// bodyMentionsVar reports whether any statement in body references v.
func bodyMentionsVar(info *types.Info, body []ast.Stmt, v *types.Var) bool {
	for _, s := range body {
		found := false
		ast.Inspect(s, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && info.Uses[id] == v {
				found = true
				return false
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}

// runHandlerInventory checks that every declared MsgType constant is
// named in at least one dispatch-sized switch across the whole program,
// or is annotated //lint:dispatch with a reason.
func runHandlerInventory(pass *Pass) {
	// Constants declared in this unit, with their declaration idents
	// (for positions and annotations).
	type declared struct {
		name string
		pos  ast.Node
	}
	var consts []declared
	annotated := collectDispatchAnnotations(pass.Pkg)
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					if name.Name == "_" {
						continue // a retired value's slot: nothing to dispatch
					}
					c, ok := pass.Pkg.Info.Defs[name].(*types.Const)
					if !ok || !isMsgType(c.Type()) {
						continue
					}
					consts = append(consts, declared{name: name.Name, pos: name})
				}
			}
		}
	}
	if len(consts) == 0 {
		return
	}

	// Union of case names over every MsgType switch in every unit —
	// cross-unit object identity is unstable, so match by name.
	handled := make(map[string]bool)
	prog := pass.Prog
	pkgs := []*Package{pass.Pkg}
	if prog != nil {
		pkgs = prog.Packages()
	}
	for _, pkg := range pkgs {
		for _, ms := range collectMsgSwitches(pkg) {
			if !ms.isDispatch() {
				continue
			}
			for name := range ms.cases {
				handled[name] = true
			}
		}
	}

	var missing []declared
	for _, c := range consts {
		if !handled[c.name] && !annotated[c.name] {
			missing = append(missing, c)
		}
	}
	sort.Slice(missing, func(i, j int) bool { return missing[i].name < missing[j].name })
	for _, c := range missing {
		pass.Reportf("handlercheck", c.pos.Pos(),
			"message type %s is handled by no dispatch switch: add it to a dispatcher or annotate the constant with //lint:dispatch <reason>", c.name)
	}
}

// collectDispatchAnnotations parses //lint:dispatch comments: placed on
// the constant's line or the line above, they exempt that MsgType from
// the inventory with a recorded reason.
func collectDispatchAnnotations(pkg *Package) map[string]bool {
	out := make(map[string]bool)
	for _, f := range pkg.Files {
		// Lines carrying a //lint:dispatch comment (with a non-empty
		// reason) cover MsgType consts declared on that line or the next.
		covered := make(map[int]bool)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				rest, ok := strings.CutPrefix(text, "lint:dispatch")
				if !ok || strings.TrimSpace(rest) == "" {
					continue
				}
				line := pkg.Fset.Position(c.Pos()).Line
				covered[line] = true
				covered[line+1] = true
			}
		}
		if len(covered) == 0 {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			vs, ok := n.(*ast.ValueSpec)
			if !ok {
				return true
			}
			for _, name := range vs.Names {
				if c, ok := pkg.Info.Defs[name].(*types.Const); ok && isMsgType(c.Type()) {
					if covered[pkg.Fset.Position(name.Pos()).Line] {
						out[name.Name] = true
					}
				}
			}
			return true
		})
	}
	return out
}
