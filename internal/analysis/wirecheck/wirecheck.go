// Package wirecheck verifies that every wire-protocol message constant is
// fully plumbed: a `msg*` constant that exists but is never written to a
// peer, or written but never matched on the receive side, is a protocol hole
// — exactly the "added msgAck, forgot a dispatch arm" class of bug that a
// frame-type table makes easy to introduce.
//
// The check is convention-driven and fires on any package that declares two
// or more package-level uint8 constants named `msgX...` (in graphpi, that is
// internal/cluster's wire.go). For each such constant it requires:
//
//   - a send site: the constant (or a local variable it was assigned to) is
//     passed as an argument to a function or method whose name is `write` or
//     `writeFrame`;
//   - a dispatch site: the constant appears in a switch `case` clause or in
//     an ==/!= comparison (the receive paths match frame types both ways).
//
// A deliberately one-way constant can be excused with a trailing
// `//graphpivet:ignore` comment on its declaration line.
package wirecheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
	"unicode"

	"graphpi/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "wirecheck",
	Doc:  "check that every msg* wire constant has a send site and a dispatch site",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	consts := wireConstants(pass)
	if len(consts) < 2 {
		return nil // not a wire-protocol package
	}

	sent := make(map[types.Object]bool)
	dispatched := make(map[types.Object]bool)

	for _, fd := range pass.FuncsOf(false) {
		// One-hop value flow: locals assigned from msg constants count as
		// every constant they might hold when sent (e.g. `reply := msgBusy;
		// if done { reply = msgIdle }; write(reply, nil)`).
		aliases := make(map[types.Object][]types.Object) // local var -> msg consts
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if as, ok := n.(*ast.AssignStmt); ok && len(as.Lhs) == len(as.Rhs) {
				for i, rhs := range as.Rhs {
					c := constObj(pass, consts, rhs)
					if c == nil {
						continue
					}
					if id, ok := as.Lhs[i].(*ast.Ident); ok {
						if v, ok := pass.TypesInfo.ObjectOf(id).(*types.Var); ok {
							aliases[v] = append(aliases[v], c)
						}
					}
				}
			}
			return true
		})

		resolve := func(e ast.Expr) []types.Object {
			if c := constObj(pass, consts, e); c != nil {
				return []types.Object{c}
			}
			if id, ok := ast.Unparen(e).(*ast.Ident); ok {
				return aliases[pass.TypesInfo.ObjectOf(id)]
			}
			return nil
		}

		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				name := analysis.CalleeName(n)
				if name != "write" && name != "writeFrame" {
					return true
				}
				for _, arg := range n.Args {
					for _, c := range resolve(arg) {
						sent[c] = true
					}
				}
			case *ast.CaseClause:
				for _, e := range n.List {
					if c := constObj(pass, consts, e); c != nil {
						dispatched[c] = true
					}
				}
			case *ast.BinaryExpr:
				if n.Op == token.EQL || n.Op == token.NEQ {
					if c := constObj(pass, consts, n.X); c != nil {
						dispatched[c] = true
					}
					if c := constObj(pass, consts, n.Y); c != nil {
						dispatched[c] = true
					}
				}
			}
			return true
		})
	}

	for _, c := range consts {
		switch {
		case !sent[c.obj] && !dispatched[c.obj]:
			pass.Reportf(c.pos, "wire constant %s is declared but never sent or dispatched", c.obj.Name())
		case !sent[c.obj]:
			pass.Reportf(c.pos, "wire constant %s is never sent (no write/writeFrame call passes it)", c.obj.Name())
		case !dispatched[c.obj]:
			pass.Reportf(c.pos, "wire constant %s is never dispatched (no switch case or ==/!= comparison matches it)", c.obj.Name())
		}
	}
	return nil
}

type wireConst struct {
	obj types.Object
	pos token.Pos
}

// wireConstants collects package-level uint8 constants named msg<Upper>...
func wireConstants(pass *analysis.Pass) []wireConst {
	var out []wireConst
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					if !strings.HasPrefix(name.Name, "msg") || len(name.Name) < 4 ||
						!unicode.IsUpper(rune(name.Name[3])) {
						continue
					}
					obj := pass.TypesInfo.Defs[name]
					if obj == nil {
						continue
					}
					if b, ok := obj.Type().Underlying().(*types.Basic); !ok || b.Kind() != types.Uint8 {
						continue
					}
					out = append(out, wireConst{obj: obj, pos: name.Pos()})
				}
			}
		}
	}
	return out
}

// constObj resolves an expression to one of the wire constants, if it is a
// direct reference to one.
func constObj(pass *analysis.Pass, consts []wireConst, e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	obj := pass.TypesInfo.Uses[id]
	if obj == nil {
		return nil
	}
	for _, c := range consts {
		if c.obj == obj {
			return obj
		}
	}
	return nil
}
