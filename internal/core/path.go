package core

import (
	"errors"
	"time"

	"repro/internal/netem"
)

// PathConfig wires one MSPlayer path: an emulated interface plus the
// address of the web proxy reachable through that interface's network.
type PathConfig struct {
	// Iface is the network attachment (WiFi or LTE).
	Iface *netem.Interface
	// Network is the access network name; defaults to Iface.Name().
	Network string
	// ProxyAddr is the web proxy to bootstrap from.
	ProxyAddr string
	// VideoServers, when non-empty, overrides the video-server list the
	// proxy returns at bootstrap. Deployments with an edge-cache tier
	// use it to steer the path at its network's edge instead of the
	// origin replicas; failover still walks the list in order.
	VideoServers []string
	// RequestTimeout bounds every request the path issues (watch and
	// range alike) with a virtual-time deadline: a server that accepts
	// a connection and then never responds — a blackhole fault — turns
	// into a retryable httpx.ErrRequestTimeout at exactly the deadline
	// instant instead of parking the path forever. Zero disables it.
	RequestTimeout time.Duration
	// Resilience configures circuit breakers, health-scored source
	// selection and hedged range requests. The zero value disables the
	// layer and preserves the fixed-rotation failover behavior.
	Resilience Resilience
}

// errClockStopped ends retry chains and interrupted sessions when the
// emulation is torn down mid-session: no timer fires on a stopped
// clock, so a retry without this sentinel would never resume.
var errClockStopped = errors.New("core: emulation clock stopped")

// errStalled ends a Run whose clock ran out of events before the
// session finished.
var errStalled = errors.New("core: session stalled with no pending event")

// errSessionStopped is the abort error the player's teardown pipeline
// schedules on in-flight connections: it surfaces in both endpoints'
// reads and writes from the teardown instant on.
var errSessionStopped = errors.New("core: session stopped")

// splitmixDraw advances the splitmix64 state rng and returns a draw in
// [0, n) (0 when n <= 0). Backoff and breaker jitter both draw through
// it, each from its own state seeded by (session seed, path id).
func splitmixDraw(rng *uint64, n int64) int64 {
	if n <= 0 {
		return 0
	}
	*rng += 0x9E3779B97F4A7C15
	z := *rng
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z % uint64(n))
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
