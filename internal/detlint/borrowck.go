package detlint

import (
	"go/ast"
	"go/types"
)

// borrowProducers names the functions/methods whose []byte results are
// borrowed views: valid for the duration of the call that received
// them, owned by someone else's cache or pool. Matching is by name so
// the analyzer (and its testdata) needs no dependency on the real
// packages; the tree has exactly one producer per name.
var borrowProducers = map[string]bool{
	"CachedSlice": true, // videostore.Content: views into the content page cache
	"PageView":    true, // edge.Cache: views of immutable edge-cache page buffers
	"ReadBuf":     true, // netem.Conn: borrowed views of arrived segments, returned by Release
}

// borrowParamFuncs names the functions/methods whose slice parameters
// are borrowed: the CALLER retains ownership (or has itself borrowed
// the bytes), so an implementation may forward the slice down the
// delivery chain within the call but must not retain it — the
// legitimate final aliasing into delivery segments happens behind the
// netem pipe's stable-write boundary, under its own ownership protocol.
var borrowParamFuncs = map[string]bool{
	"WriteStable": true,
}

// spawnFuncs names call targets whose func-literal argument outlives
// the call as a clock timer, a wall-clock callback or a response
// continuation: capturing a borrowed view in one retains it beyond the
// call.
var spawnFuncs = map[string]bool{
	"NewTimer":  true, // Clock.NewTimer callbacks
	"AfterFunc": true,
	"After":     true, // httpx.After response continuations
}

// BorrowckAnalyzer enforces the borrowed-slice ownership rules of the
// zero-copy delivery path (netem/doc.go, "Pooling invariants"):
// Content.CachedSlice results, Conn.ReadBuf views (whose consumer end
// is Conn.Release), WriteStable arguments, and sync.Pool payload
// buffers alias memory someone else recycles or serves concurrently. Within each function it tracks values of those origins
// and flags retention beyond the call:
//
//   - assignment into a struct field, slice/map element, or package
//     variable (full borrows only — storing a pool buffer into an
//     owning struct IS the pool handoff protocol);
//   - capture by a closure handed to a go statement or a timer (the
//     closure runs after the call returns);
//   - append on a full borrow (spare capacity would let append write
//     into the shared backing array; appending into a pool buffer the
//     function itself just took from the pool is the owner's write);
//   - returning a full borrow from a function not itself named as a
//     borrow producer (hiding the borrow from the caller's analysis).
//
// The tracking is per-function and flow-insensitive by design: it
// catches the retention shapes that have actually bitten (and the ones
// review fears), not every conceivable laundering through interfaces.
var BorrowckAnalyzer = &Analyzer{
	Name: "borrowck",
	Doc:  "flag retention of borrowed views (CachedSlice results, WriteStable args, pooled payloads) beyond the call (netem/doc.go pooling invariants)",
	Run:  runBorrowck,
}

func runBorrowck(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			fd, ok := n.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				return true
			}
			checkBorrowFunc(pass, fd)
			return false // FuncLits inside are analyzed as part of the decl
		})
	}
	return nil
}

type borrowKind int

const (
	notBorrowed borrowKind = iota
	fullBorrow             // CachedSlice views, WriteStable parameters
	poolBorrow             // sync.Pool buffers (ownership transfers by protocol)
)

func checkBorrowFunc(pass *Pass, fd *ast.FuncDecl) {
	borrowed := make(map[types.Object]borrowKind)

	// Seed: slice parameters of borrow-consuming functions.
	if borrowParamFuncs[fd.Name.Name] && fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			for _, name := range field.Names {
				obj := pass.TypesInfo.Defs[name]
				if obj == nil {
					continue
				}
				if _, ok := obj.Type().Underlying().(*types.Slice); ok {
					borrowed[obj] = fullBorrow
				}
			}
		}
	}

	exprKind := func(e ast.Expr) borrowKind {
		return borrowExprKind(pass, borrowed, e)
	}

	// Propagate borrows through plain local assignments. Two passes so
	// the (rare) use-before-later-assignment chain still resolves; the
	// map only ever grows, so this is a cheap fixpoint.
	for i := 0; i < 2; i++ {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) > len(as.Rhs) && len(as.Rhs) != 1 {
				return true
			}
			for i, lhs := range as.Lhs {
				id, ok := skipParens(lhs).(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				var rhs ast.Expr
				if len(as.Rhs) == len(as.Lhs) {
					rhs = as.Rhs[i]
				} else if len(as.Rhs) == 1 && i == 0 {
					// v, ok := <borrow>.(T): track the value side only.
					rhs = as.Rhs[0]
				}
				if rhs == nil {
					continue
				}
				kind := exprKind(rhs)
				if kind == notBorrowed {
					continue
				}
				obj := pass.TypesInfo.Defs[id]
				if obj == nil {
					obj = pass.TypesInfo.Uses[id]
				}
				if obj != nil {
					borrowed[obj] = kind
				}
			}
			return true
		})
	}

	// Violation scan.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				var rhs ast.Expr
				if len(n.Rhs) == len(n.Lhs) {
					rhs = n.Rhs[i]
				} else if len(n.Rhs) == 1 {
					rhs = n.Rhs[0]
				}
				if rhs == nil || exprKind(rhs) != fullBorrow {
					continue
				}
				switch target := skipParens(lhs).(type) {
				case *ast.SelectorExpr:
					pass.Reportf(n.Pos(), "borrowed view stored into field %s; it is only valid for the duration of the call (copy it, or own the buffer)", target.Sel.Name)
				case *ast.IndexExpr:
					pass.Reportf(n.Pos(), "borrowed view stored into a container element; it is only valid for the duration of the call (copy it, or own the buffer)")
				case *ast.Ident:
					if obj := pass.TypesInfo.Uses[target]; obj != nil && obj.Parent() == pass.Pkg.Scope() {
						pass.Reportf(n.Pos(), "borrowed view stored into package variable %s; it is only valid for the duration of the call", target.Name)
					}
				}
			}
		case *ast.CallExpr:
			// Append growth applies to full borrows only: appending into
			// a buffer this function itself took from a pool is the
			// normal owner write (httpx request assembly, seg buffers).
			if isBuiltinAppend(pass, n) && len(n.Args) > 0 {
				if root := rootIdent(n.Args[0]); root != nil {
					if obj := pass.TypesInfo.Uses[root]; obj != nil && borrowed[obj] == fullBorrow {
						pass.Reportf(n.Pos(), "append on borrowed slice %s can write into the shared backing array; copy it first", root.Name)
					}
				}
			}
			if fl := spawnedFuncLit(n); fl != nil {
				reportBorrowedCaptures(pass, borrowed, fl, "closure spawned via "+callName(n))
			}
		case *ast.GoStmt:
			if fl, ok := n.Call.Fun.(*ast.FuncLit); ok {
				reportBorrowedCaptures(pass, borrowed, fl, "go statement closure")
			}
		case *ast.ReturnStmt:
			if borrowProducers[fd.Name.Name] {
				return true // a declared producer hands borrows out on purpose
			}
			for _, res := range n.Results {
				if exprKind(res) == fullBorrow {
					pass.Reportf(n.Pos(), "borrowed view returned from %s; callers cannot see the borrow — copy it, or register the function as a borrow producer", fd.Name.Name)
				}
			}
		case *ast.CompositeLit:
			for _, el := range n.Elts {
				v := el
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					v = kv.Value
				}
				if exprKind(v) == fullBorrow {
					pass.Reportf(v.Pos(), "borrowed view stored into a composite literal; it is only valid for the duration of the call")
				}
			}
		}
		return true
	})
}

// borrowExprKind classifies an expression's borrow origin: a tracked
// ident, a reslice/paren/address of one, a call to a borrow producer,
// or a sync.Pool Get (possibly through a type assertion).
func borrowExprKind(pass *Pass, borrowed map[types.Object]borrowKind, e ast.Expr) borrowKind {
	switch e := e.(type) {
	case *ast.Ident:
		return borrowed[pass.TypesInfo.Uses[e]]
	case *ast.ParenExpr:
		return borrowExprKind(pass, borrowed, e.X)
	case *ast.SliceExpr:
		return borrowExprKind(pass, borrowed, e.X)
	case *ast.StarExpr:
		return borrowExprKind(pass, borrowed, e.X)
	case *ast.UnaryExpr:
		return borrowExprKind(pass, borrowed, e.X)
	case *ast.TypeAssertExpr:
		return borrowExprKind(pass, borrowed, e.X)
	case *ast.CallExpr:
		sel, ok := e.Fun.(*ast.SelectorExpr)
		if !ok {
			return notBorrowed
		}
		if borrowProducers[sel.Sel.Name] {
			return fullBorrow
		}
		if sel.Sel.Name == "Get" && isSyncPool(pass, sel.X) {
			return poolBorrow
		}
		return notBorrowed
	}
	return notBorrowed
}

func isSyncPool(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Pool" && obj.Pkg() != nil && obj.Pkg().Path() == "sync"
}

// spawnedFuncLit returns the func literal argument of a call whose
// callee name marks deferred execution (NewTimer, After, ...).
func spawnedFuncLit(call *ast.CallExpr) *ast.FuncLit {
	name := callName(call)
	if !spawnFuncs[name] {
		return nil
	}
	for _, arg := range call.Args {
		if fl, ok := arg.(*ast.FuncLit); ok {
			return fl
		}
	}
	return nil
}

func callName(call *ast.CallExpr) string {
	switch f := skipParens(call.Fun).(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		return f.Sel.Name
	}
	return ""
}

func reportBorrowedCaptures(pass *Pass, borrowed map[types.Object]borrowKind, fl *ast.FuncLit, how string) {
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.TypesInfo.Uses[id]
		if obj != nil && borrowed[obj] != notBorrowed {
			pass.Reportf(id.Pos(), "borrowed slice %s captured by %s outlives the call; copy the bytes before handing them off", id.Name, how)
		}
		return true
	})
}
