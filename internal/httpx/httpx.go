// Package httpx provides the HTTP plumbing MSPlayer uses on each path:
// an event-loop client (EventTransport) bound to one emulated interface
// that completes the secure-connection handshake before carrying
// requests and delivers range bodies as zero-copy views, and an
// HTTP/1.1 server for the emulated origin and edge tiers.
//
// Everything is built for the deterministic virtual clock. The Server
// takes every connection from its listener's accept callback and serves
// it as a state machine stepped by clock callbacks (eventserver.go): handlers run inline and never block, and a handler
// that must wait continues through After. EventTransport runs each
// request the same way on the caller's netem.Loop (eventclient.go).
// Nothing in the HTTP path parks a goroutine, which is what lets one
// driver run the whole exchange deterministically on the clock
// (net/http's Transport and Server would park their internal goroutines
// on plain channels, invisible to the clock). Connections are persistent, so
// each range request after the first costs one request round trip,
// exactly as in the paper.
//
// Teardown is deterministic end to end: EventTransport.Shutdown aborts
// every in-use connection through the netem conn abort protocol (a
// clock event at one pinned virtual instant), the Server's request
// lifecycle hooks (WithRequestHooks) attribute each request's bytes and
// Aborted disposition in the connection machines' clock callbacks, and
// Server.Drain joins the machines on the clock.
package httpx

import (
	"fmt"
	"sync"
)

// maxIdlePerHost bounds pooled idle connections per server address.
const maxIdlePerHost = 4

// ErrRequestTimeout aborts requests whose EventTransport.SetRequestTimeout
// deadline elapsed. Compare with errors.Is: it arrives wrapped in the
// handshake, response-read or body-read error of whichever stage the
// deadline interrupted.
var ErrRequestTimeout = fmt.Errorf("httpx: request deadline exceeded")

// ErrHedged aborts requests whose EventTransport.SetHedge budget
// elapsed: the caller gave up on this attempt to hedge the range
// elsewhere. Compare with errors.Is, like ErrRequestTimeout. A
// hedged-out attempt on a reused connection is not transparently
// retried — hedging exists precisely so the caller can redirect the
// request.
var ErrHedged = fmt.Errorf("httpx: request hedged")

// errTransportClosed is the default Shutdown error.
var errTransportClosed = fmt.Errorf("httpx: transport shut down")

// reqBufPool recycles request staging buffers.
var reqBufPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 512); return &b },
}

// StatusError reports an unexpected HTTP status code, letting callers
// distinguish authorization failures (expired tokens) from server
// errors when deciding between token refresh and failover.
type StatusError struct {
	Code int
	Msg  string
}

// Error implements error.
func (e *StatusError) Error() string {
	return fmt.Sprintf("httpx: status %d: %s", e.Code, e.Msg)
}
