package detlint

import (
	"go/ast"
	"strings"
)

// BaredgoAnalyzer enforces netem/doc.go rule 2: the emulation runs on
// one goroutine, the clock's driver. A bare go statement runs code
// beside the driver, where it races the events the driver fires and
// lands at whatever virtual instant the Go scheduler decides.
//
// _test.go files are exempt: tests spawn helpers around the emulation
// (samplers, result collectors) whose scheduling is not part of any
// pinned result. The intentional bare spawns — independent emulations
// run side by side, each with its own clock — carry //detlint:allow
// baredgo directives.
var BaredgoAnalyzer = &Analyzer{
	Name: "baredgo",
	Doc:  "forbid bare go statements in non-test files; the emulation runs on its clock's driver (netem/doc.go rule 2)",
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
				pass.Reportf(g.Pos(), "bare go statement spawns a clock-invisible goroutine; run the work as a clock callback on the driver (doc.go rule 2)")
			}
			return true
		})
	}
	return nil
}
