// Package detlint is a static-analysis suite that mechanically enforces
// the determinism and buffer-ownership invariants the emulation's
// bit-identical replay rests on. The rules themselves are prose in
// internal/netem/doc.go; every analyzer here names the rule it enforces,
// so the documentation and the tooling cannot drift apart:
//
//   - wallclock  — doc.go rule 1 (no invisible parks / wall-clock reads):
//     forbids time.Now, time.Sleep, time.After, time.Tick, time.Since,
//     time.Until, time.NewTimer, time.NewTicker, time.AfterFunc.
//     Emulated waiting and time reads must go through netem.Clock.
//   - baredgo    — doc.go rule 2 (the emulation runs on its driver):
//     forbids bare go statements in non-test files; a clock-invisible
//     goroutine races the events the driver fires.
//   - globalrand — the seeded-RNG rule (see the rand audit in
//     netem/pipe.go and trace.go): forbids the process-global math/rand
//     functions; all randomness derives from the scenario seed via
//     rand.New(rand.NewSource(subseed)).
//   - maprange   — no map-iteration order in observable output: flags
//     range-over-map loops whose bodies write to an io.Writer, append to
//     an escaping slice without sorting it afterwards, or mutate
//     accounting state through fields and indexed elements.
//   - borrowck   — the borrowed-slice ownership rules from the zero-copy
//     path (doc.go "Pooling invariants"): flags retention of borrowed
//     views (Content.CachedSlice results, WriteStable arguments, pooled
//     payload buffers) beyond the call — struct-field assignment,
//     capture by spawned closures, append growth on the borrowed slice.
//
// Findings are suppressed, one call site at a time, with
//
//	//detlint:allow <analyzer>[,<analyzer>...] -- <reason>
//
// on the offending line or the line above it. The driver
// (cmd/detlint) honors the directive, reports how many findings each
// run suppressed, and warns about directives that suppress nothing;
// `cmd/detlint -suppressions` prints every directive in the tree so
// the full escape-hatch surface is auditable in review.
//
// The framework deliberately mirrors the golang.org/x/tools/go/analysis
// API shapes (Analyzer / Pass / analysistest-style testdata with
// `// want` annotations) but is self-contained: the build environment
// is offline, so the loader resolves imports from the toolchain's own
// export data (go list -export) instead of pulling x/tools.
package detlint

// Analyzers returns the full suite in a fixed order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		WallclockAnalyzer,
		BaredgoAnalyzer,
		GlobalrandAnalyzer,
		MaprangeAnalyzer,
		BorrowckAnalyzer,
	}
}
