package detlint

import (
	"go/ast"
	"go/types"
)

// wallclockForbidden names the package-level time functions that read or
// wait on the wall clock. Referencing any of them (called or not) makes
// event timing depend on the machine instead of the virtual clock.
var wallclockForbidden = map[string]bool{
	"Now":       true,
	"Sleep":     true,
	"After":     true,
	"Tick":      true,
	"Since":     true,
	"Until":     true,
	"NewTimer":  true,
	"NewTicker": true,
	"AfterFunc": true,
}

// WallclockAnalyzer enforces netem/doc.go rule 1: emulation code must
// never read or wait on the wall clock — all timing goes through
// netem.Clock (Clock.Now, netem.Timer, the driver's SleepUntil and
// Await). One time.Sleep stalls the driver in wall time; one time.Now
// leaks machine time into reports. Code that measures wall
// time on purpose (benchmark harnesses, test watchdogs) carries a
// //detlint:allow wallclock directive naming why.
var WallclockAnalyzer = &Analyzer{
	Name: "wallclock",
	Doc:  "forbid wall-clock time functions; emulation timing must go through netem.Clock (netem/doc.go rule 1)",
	Run:  runWallclock,
}

func runWallclock(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
				return true
			}
			// Methods (t.After, t.Since-style comparisons on time.Time
			// values) are pure value arithmetic — only the package-level
			// functions consult the wall clock.
			if fn.Type().(*types.Signature).Recv() != nil {
				return true
			}
			if wallclockForbidden[fn.Name()] {
				pass.Reportf(sel.Pos(), "time.%s reads or waits on the wall clock; use netem.Clock (doc.go rule 1) or justify with //detlint:allow wallclock -- <reason>", fn.Name())
			}
			return true
		})
	}
	return nil
}
