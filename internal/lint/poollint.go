package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// PoolLint enforces DESIGN.md §9: a pooled buffer or frame obtained
// from netpkt.GetBuf / netpkt.GetFrame is owned by the scope that drew
// it until it is handed to exactly one consumer. Within the function
// that drew a pooled value it flags the escapes that break the
// recycling contract:
//
//   - storing the raw value into a struct field, slice/map element or
//     composite literal (retention past the owner's scope);
//   - returning the raw value (ownership leaves without a Clone — the
//     pool API itself transfers by convention and is annotated);
//   - capturing the value in a closure (a callback scheduled on sim may
//     run after the buffer was recycled);
//   - calling netpkt.PutBuf on a buffer while a zero-copy view parsed
//     from it in the same function is still used afterwards;
//   - using a packet after (*netpkt.IPv4).Release recycled it, or any
//     view parsed from it: Release is PutBuf for a parsed packet.
//
// netpkt.Clone severs aliasing: a cloned value is not tracked. The
// sanctioned handoff — building a Frame and passing it to a send/
// forward call — is untracked too (the frame travels as a call
// argument, which transfers ownership).
var PoolLint = &Analyzer{
	Name: "poollint",
	Doc:  "flag pooled netpkt buffers/frames escaping their ownership scope and premature PutBuf",
	Run:  runPoolLint,
}

func runPoolLint(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			fd, ok := n.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				return true
			}
			if isPoolAPI(pass, fd) {
				return false
			}
			checkPoolFunc(pass, fd)
			checkReleases(pass, fd)
			return false
		})
	}
	return nil
}

// isPoolAPI reports whether fd is part of the pool implementation
// itself (GetBuf returning a pooled buffer is its contract).
func isPoolAPI(pass *Pass, fd *ast.FuncDecl) bool {
	if !isNetpktPath(pass.PkgPath) {
		return false
	}
	switch fd.Name.Name {
	case "GetBuf", "PutBuf", "GetFrame", "PutFrame":
		return fd.Recv == nil
	}
	return false
}

// isNetpktPath matches the packet-codec package in both the real module
// (hgw/internal/netpkt) and the test fixtures (a package whose path
// ends in "netpkt").
func isNetpktPath(path string) bool {
	return path == "netpkt" || strings.HasSuffix(path, "/netpkt")
}

// poolFunc recognizes calls to the pool/codec API by function name and
// defining package.
func poolFunc(pass *Pass, call *ast.CallExpr) (name string, ok bool) {
	var obj types.Object
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		obj = pass.TypesInfo.Uses[fun.Sel]
	case *ast.Ident:
		obj = pass.TypesInfo.Uses[fun]
	default:
		return "", false
	}
	fn, ok2 := obj.(*types.Func)
	if !ok2 || fn.Pkg() == nil || !isNetpktPath(fn.Pkg().Path()) {
		return "", false
	}
	return fn.Name(), true
}

// checkPoolFunc analyzes one function declaration.
func checkPoolFunc(pass *Pass, fd *ast.FuncDecl) {
	// Pass 1: find tracked pooled values (idents assigned directly from
	// GetBuf/GetFrame) and aliases (zero-copy views parsed from a
	// tracked buffer, or subslices of one).
	type source struct {
		kind string // "buffer" or "frame"
	}
	tracked := make(map[types.Object]source)
	// owner records the innermost function literal in which each
	// tracked value was drawn (nil = the declaration's own body): a use
	// in any *other* function literal is a capture.
	owner := make(map[types.Object]*ast.FuncLit)
	aliasOf := make(map[types.Object]types.Object) // view -> tracked buffer
	propagate := func(as *ast.AssignStmt, curLit *ast.FuncLit) {
		if len(as.Rhs) != 1 {
			return
		}
		switch rhs := as.Rhs[0].(type) {
		case *ast.CallExpr:
			name, ok := poolFunc(pass, rhs)
			if ok && (name == "GetBuf" || name == "GetFrame") && len(as.Lhs) == 1 {
				if id, ok := as.Lhs[0].(*ast.Ident); ok {
					if obj := lhsObj(pass, id); obj != nil {
						kind := "buffer"
						if name == "GetFrame" {
							kind = "frame"
						}
						tracked[obj] = source{kind: kind}
						owner[obj] = curLit
					}
				}
				return
			}
			// v, ok := netpkt.ParseX(buf): v aliases buf.
			if ok && strings.HasPrefix(name, "Parse") {
				var base types.Object
				for _, arg := range rhs.Args {
					if id, ok := arg.(*ast.Ident); ok {
						if obj := pass.TypesInfo.Uses[id]; obj != nil {
							if _, isTracked := tracked[obj]; isTracked {
								base = obj
								break
							}
							if b, isAlias := aliasOf[obj]; isAlias {
								base = b
								break
							}
						}
					}
				}
				if base == nil {
					return
				}
				for _, lhs := range as.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok || id.Name == "_" {
						continue
					}
					if obj := lhsObj(pass, id); obj != nil {
						if basic, ok := obj.Type().Underlying().(*types.Basic); ok && basic.Info()&types.IsBoolean != 0 {
							continue // the ok result
						}
						aliasOf[obj] = base
					}
				}
			}
		case *ast.SliceExpr:
			// p := buf[i:j] aliases buf.
			if id, ok := rhs.X.(*ast.Ident); ok && len(as.Lhs) == 1 {
				if obj := pass.TypesInfo.Uses[id]; obj != nil {
					base := obj
					if b, isAlias := aliasOf[obj]; isAlias {
						base = b
					}
					if _, isTracked := tracked[base]; isTracked {
						if lid, ok := as.Lhs[0].(*ast.Ident); ok {
							if lobj := lhsObj(pass, lid); lobj != nil {
								aliasOf[lobj] = base
							}
						}
					}
				}
			}
		case *ast.Ident:
			// b2 := buf propagates tracking.
			if obj := pass.TypesInfo.Uses[rhs]; obj != nil && len(as.Lhs) == 1 {
				if src, isTracked := tracked[obj]; isTracked {
					if id, ok := as.Lhs[0].(*ast.Ident); ok {
						if lobj := lhsObj(pass, id); lobj != nil {
							tracked[lobj] = src
							owner[lobj] = curLit
						}
					}
				}
			}
		}
	}
	var scan func(n ast.Node, curLit *ast.FuncLit)
	scan = func(n ast.Node, curLit *ast.FuncLit) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.FuncLit:
				if m != n {
					scan(m.Body, m)
					return false
				}
			case *ast.AssignStmt:
				propagate(m, curLit)
			}
			return true
		})
	}
	scan(fd.Body, nil)
	if len(tracked) == 0 {
		return
	}

	trackedIdent := func(e ast.Expr) (types.Object, string, bool) {
		id, ok := e.(*ast.Ident)
		if !ok {
			return nil, "", false
		}
		obj := pass.TypesInfo.Uses[id]
		if obj == nil {
			return nil, "", false
		}
		src, ok := tracked[obj]
		return obj, src.kind, ok
	}

	// Pass 2: violations.
	var walk func(n ast.Node, curLit *ast.FuncLit, captured map[types.Object]bool)
	walk = func(n ast.Node, curLit *ast.FuncLit, captured map[types.Object]bool) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.FuncLit:
				if m == n {
					return true
				}
				// Everything referenced inside runs later: report each
				// pooled value drawn OUTSIDE this literal once, at its
				// first use inside it.
				walk(m.Body, m, make(map[types.Object]bool))
				return false
			case *ast.Ident:
				if obj := pass.TypesInfo.Uses[m]; obj != nil && !captured[obj] {
					if src, ok := tracked[obj]; ok && owner[obj] != curLit {
						captured[obj] = true
						pass.Reportf(m.Pos(), "pooled %s %q captured by closure: it may be recycled before the closure runs; Clone it or annotate the handoff", src.kind, m.Name)
					}
				}
				return true
			case *ast.AssignStmt:
				for i, lhs := range m.Lhs {
					if len(m.Rhs) != len(m.Lhs) {
						break
					}
					obj, kind, ok := trackedIdent(m.Rhs[i])
					if !ok {
						continue
					}
					switch lhs.(type) {
					case *ast.SelectorExpr, *ast.IndexExpr:
						pass.Reportf(m.Pos(), "pooled %s %q stored in %s escapes its ownership scope; Clone it first or annotate", kind, obj.Name(), exprString(lhs))
					}
				}
				return true
			case *ast.CompositeLit:
				for _, elt := range m.Elts {
					v := elt
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						v = kv.Value
					}
					if obj, kind, ok := trackedIdent(v); ok {
						pass.Reportf(v.Pos(), "pooled %s %q stored in composite literal escapes its ownership scope; Clone it first or annotate", kind, obj.Name())
					}
				}
				return true
			case *ast.ReturnStmt:
				for _, r := range m.Results {
					if obj, kind, ok := trackedIdent(r); ok {
						pass.Reportf(r.Pos(), "returning pooled %s %q transfers ownership implicitly; Clone it, document the transfer with an annotation, or recycle locally", kind, obj.Name())
					}
				}
				return true
			case *ast.CallExpr:
				name, ok := poolFunc(pass, m)
				if !ok || name != "PutBuf" || len(m.Args) != 1 {
					return true
				}
				obj, _, ok := trackedIdent(m.Args[0])
				if !ok {
					return true
				}
				// A parsed zero-copy view of obj used after this PutBuf
				// means the recycled bytes are still reachable.
				for view, base := range aliasOf {
					if base != obj {
						continue
					}
					if use := usedAfter(pass, fd.Body, m.End(), view); use.IsValid() {
						pass.Reportf(m.Pos(), "PutBuf(%s) while zero-copy view %q parsed from it is still used at %s; recycle after the last use or Clone the view", obj.Name(), view.Name(), pass.Fset.Position(use))
					}
				}
				return true
			}
			return true
		})
	}
	walk(fd.Body, nil, make(map[types.Object]bool))
}

// lhsObj resolves the object an assignment LHS ident binds or uses.
func lhsObj(pass *Pass, id *ast.Ident) types.Object {
	if obj := pass.TypesInfo.Defs[id]; obj != nil {
		return obj
	}
	return pass.TypesInfo.Uses[id]
}

// usedAfter returns the position of the first use of obj after pos in
// body, or token.NoPos.
func usedAfter(pass *Pass, body *ast.BlockStmt, pos token.Pos, obj types.Object) token.Pos {
	var found token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		if found.IsValid() {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok || id.Pos() <= pos {
			return true
		}
		if pass.TypesInfo.Uses[id] == obj {
			found = id.Pos()
		}
		return true
	})
	return found
}

// checkReleases flags every (*netpkt.IPv4).Release(x) in fd after which
// x, or a zero-copy view parsed or sliced from x, is used again.
func checkReleases(pass *Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt, *ast.GoStmt:
			return false // runs at function end or elsewhere, not here
		case *ast.CallExpr:
			pkt := releasedPacket(pass, n)
			if pkt == nil {
				return true
			}
			live := viewsOf(pass, fd.Body, pkt)
			if use, obj := useAfter(pass, fd.Body, n, live); use.IsValid() {
				at := pass.Fset.Position(n.Pos())
				if obj == pkt {
					pass.Reportf(use, "packet %q used after its Release at %s; release after the last use", obj.Name(), at)
				} else {
					pass.Reportf(use, "zero-copy view %q of packet %q used after the packet's Release at %s; release after the last use or Clone the view", obj.Name(), pkt.Name(), at)
				}
			}
		}
		return true
	})
}

// releasedPacket returns x for a call x.Release() of the netpkt IPv4
// method, or nil.
func releasedPacket(pass *Pass, call *ast.CallExpr) types.Object {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Release" {
		return nil
	}
	x, ok := sel.X.(*ast.Ident)
	if !ok {
		return nil
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || !isNetpktPath(fn.Pkg().Path()) {
		return nil
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	if ptr, ok := recv.Type().(*types.Pointer); !ok || !isNamed(ptr.Elem(), "IPv4") {
		return nil
	}
	return pass.TypesInfo.Uses[x]
}

func isNamed(t types.Type, name string) bool {
	n, ok := t.(*types.Named)
	return ok && n.Obj().Name() == name
}

// viewsOf returns pkt and every variable in body that aliases its
// bytes: results of a netpkt Parse function or a netpkt value's Parse
// method applied to it, and fields or slices taken from it —
// transitively.
func viewsOf(pass *Pass, body *ast.BlockStmt, pkt types.Object) map[types.Object]bool {
	views := map[types.Object]bool{pkt: true}
	mentions := func(e ast.Expr) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && views[pass.TypesInfo.Uses[id]] {
				found = true
			}
			return !found
		})
		return found
	}
	argsMention := func(call *ast.CallExpr) bool {
		for _, a := range call.Args {
			if mentions(a) {
				return true
			}
		}
		return false
	}
	// parseRecv returns v for a call v.Parse(...) of a netpkt method.
	parseRecv := func(call *ast.CallExpr) types.Object {
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Parse" {
			return nil
		}
		fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil || !isNetpktPath(fn.Pkg().Path()) {
			return nil
		}
		if id, ok := sel.X.(*ast.Ident); ok {
			return pass.TypesInfo.Uses[id]
		}
		return nil
	}
	for grew := true; grew; {
		grew = false
		add := func(obj types.Object) {
			if obj != nil && !views[obj] {
				views[obj] = true
				grew = true
			}
		}
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if v := parseRecv(n); v != nil && argsMention(n) {
					add(v)
				}
			case *ast.AssignStmt:
				if len(n.Rhs) != 1 {
					return true
				}
				aliases := false
				switch rhs := n.Rhs[0].(type) {
				case *ast.CallExpr:
					name, ok := poolFunc(pass, rhs)
					aliases = ok && strings.HasPrefix(name, "Parse") && argsMention(rhs)
				case *ast.SelectorExpr, *ast.SliceExpr:
					aliases = mentions(rhs)
				}
				if !aliases {
					return true
				}
				for _, lhs := range n.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok || id.Name == "_" {
						continue
					}
					obj := lhsObj(pass, id)
					if obj == nil {
						continue
					}
					switch obj.Type().Underlying().(type) {
					case *types.Slice, *types.Pointer:
						add(obj)
					}
				}
			}
			return true
		})
	}
	return views
}

// useAfter returns the first use of a live object reachable after call
// runs, and that object. It follows the statements after call's
// statement in its block and then in each enclosing block, up to the
// function or closure body, and stops at a statement that leaves the
// block (return, branch, panic): a release on a drop path does not see
// the uses on the path it left. A loop around the release reaches its
// whole body again, unless the packet is declared inside the loop. An
// assignment to the packet itself ends tracking.
func useAfter(pass *Pass, body *ast.BlockStmt, call *ast.CallExpr, live map[types.Object]bool) (token.Pos, types.Object) {
	path := pathTo(body, call)
	for i := len(path) - 1; i > 0; i-- {
		child, parent := path[i], path[i-1]
		if _, ok := parent.(*ast.FuncLit); ok {
			break
		}
		switch p := parent.(type) {
		case *ast.ForStmt:
			if child == p.Body {
				if pos, obj := loopUse(pass, p, p.Body, live); pos.IsValid() {
					return pos, obj
				}
			}
		case *ast.RangeStmt:
			if child == p.Body {
				if pos, obj := loopUse(pass, p, p.Body, live); pos.IsValid() {
					return pos, obj
				}
			}
		}
		list := stmtList(parent)
		idx := -1
		for j, st := range list {
			if st == child {
				idx = j
			}
		}
		if idx < 0 {
			continue
		}
		for _, st := range list[idx+1:] {
			if as, ok := st.(*ast.AssignStmt); ok && as.Tok == token.ASSIGN {
				for _, rhs := range as.Rhs {
					if pos, obj := firstUse(pass, rhs, live); pos.IsValid() {
						return pos, obj
					}
				}
				for _, lhs := range as.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						live = without(live, pass.TypesInfo.Uses[id])
					}
				}
				continue
			}
			if pos, obj := firstUse(pass, st, live); pos.IsValid() {
				return pos, obj
			}
			if terminates(st) {
				return token.NoPos, nil
			}
		}
	}
	return token.NoPos, nil
}

// loopUse returns a use in a loop body of a live object declared
// outside the loop: the next iteration reaches it after the release.
func loopUse(pass *Pass, loop ast.Node, body *ast.BlockStmt, live map[types.Object]bool) (token.Pos, types.Object) {
	outer := make(map[types.Object]bool)
	for obj := range live {
		if obj.Pos() < loop.Pos() || obj.Pos() > loop.End() {
			outer[obj] = true
		}
	}
	return firstUse(pass, body, outer)
}

func without(live map[types.Object]bool, obj types.Object) map[types.Object]bool {
	if !live[obj] {
		return live
	}
	out := make(map[types.Object]bool, len(live))
	for o := range live {
		if o != obj {
			out[o] = true
		}
	}
	return out
}

// firstUse returns the first identifier in n that uses a live object.
func firstUse(pass *Pass, n ast.Node, live map[types.Object]bool) (token.Pos, types.Object) {
	var pos token.Pos
	var obj types.Object
	ast.Inspect(n, func(m ast.Node) bool {
		if pos.IsValid() {
			return false
		}
		if id, ok := m.(*ast.Ident); ok {
			if o := pass.TypesInfo.Uses[id]; live[o] {
				pos, obj = id.Pos(), o
			}
		}
		return true
	})
	return pos, obj
}

// pathTo returns the chain of nodes from root down to target.
func pathTo(root, target ast.Node) []ast.Node {
	var path []ast.Node
	var found bool
	ast.Inspect(root, func(n ast.Node) bool {
		if found {
			return false
		}
		if n == nil {
			path = path[:len(path)-1]
			return false
		}
		path = append(path, n)
		if n == target {
			found = true
			return false
		}
		return true
	})
	return path
}

// stmtList returns the statements directly inside a block-like node.
func stmtList(n ast.Node) []ast.Stmt {
	switch n := n.(type) {
	case *ast.BlockStmt:
		return n.List
	case *ast.CaseClause:
		return n.Body
	case *ast.CommClause:
		return n.Body
	}
	return nil
}

// terminates reports whether control never falls through st.
func terminates(st ast.Stmt) bool {
	switch st := st.(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := st.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}
