package baredgo

import "testing"

// _test.go files are exempt: tests spawn helpers around the
// emulation, so this bare go statement is NOT a finding.
func TestShimGoroutineAllowed(t *testing.T) {
	done := make(chan struct{})
	go func() { close(done) }()
	<-done
}
