package detlint

import (
	"go/ast"
	"strings"
)

// BaredgoAnalyzer enforces netem/doc.go rule 2: emulation goroutines are
// spawned with Clock.Go (or under a Hold covering the handoff), so the
// clock cannot jump between the spawn and the new goroutine's first
// park. A bare go statement opens exactly that window: the spawner may
// park, the clock jumps, and the spawnee's first scheduled event lands
// at a later instant than the same-seed run where the scheduler was
// faster.
//
// _test.go files are exempt: tests spawn helpers around the emulation
// (watchdogs, late registrations, result collectors) whose scheduling
// is not part of any pinned result.
// The handful of intentional bare spawns (Clock.Go's own implementation,
// event relays that originate outside emulated time) carry
// //detlint:allow baredgo directives.
var BaredgoAnalyzer = &Analyzer{
	Name: "baredgo",
	Doc:  "forbid bare go statements in non-test files; spawn through Clock.Go or under a Hold (netem/doc.go rule 2)",
	Run:  runBaredgo,
}

func runBaredgo(pass *Pass) error {
	for _, f := range pass.Files {
		filename := pass.Fset.Position(f.Pos()).Filename
		if strings.HasSuffix(filename, "_test.go") {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				pass.Reportf(g.Pos(), "bare go statement spawns a clock-invisible goroutine; use Clock.Go or cover the handoff with a Hold (doc.go rule 2)")
			}
			return true
		})
	}
	return nil
}
