// Package baredgo exercises detlint/baredgo: bare go statements are
// findings, work handed to a timer callback is not, and _test.go files
// are exempt.
package baredgo

// clock mimics netem.Clock's timer API; the analyzer only cares that
// the work is not a bare go statement.
type clock struct{}

func (clock) NewTimer(fn func()) { fn() }

func bareLiteral() {
	go func() {}() // want "bare go statement spawns a clock-invisible goroutine"
}

func bareNamed() {
	go helper() // want "bare go statement spawns a clock-invisible goroutine"
}

func helper() {}

func viaClock(c clock) {
	c.NewTimer(helper) // a clock callback: not a finding
}

func suppressed() {
	go helper() //detlint:allow baredgo -- testdata: an independent emulation with its own clock
}
