package handshake

import (
	"testing"
	"time"
)

func TestClosedForms(t *testing.T) {
	p := Params{Delta1: 3 * time.Millisecond, Delta2: 2 * time.Millisecond}
	rtt := 50 * time.Millisecond
	if got, want := p.Eta(rtt), 205*time.Millisecond; got != want {
		t.Errorf("Eta = %v, want %v", got, want)
	}
	if got, want := p.Psi(rtt), 305*time.Millisecond; got != want {
		t.Errorf("Psi = %v, want %v", got, want)
	}
	if got, want := p.Pi(rtt), 510*time.Millisecond; got != want {
		t.Errorf("Pi = %v, want %v", got, want)
	}
}

func TestHeadStart(t *testing.T) {
	r1, r2 := 25*time.Millisecond, 70*time.Millisecond
	if got, want := HeadStart(r1, r2), 450*time.Millisecond; got != want {
		t.Errorf("HeadStart = %v, want %v", got, want)
	}
	if HeadStart(r1, r1) != 0 {
		t.Error("equal paths should have zero head start")
	}
}
