// Package handshake emulates the secure-connection establishment of
// Fig. 1 in the MSPlayer paper: a TLS-style message exchange layered on
// an emulated TCP connection.
//
// The paper models the time to establish a secure HTTP connection over
// path i as
//
//	ηᵢ = 4·Rᵢ + Δ₁ + Δ₂
//
// (one round trip of TCP handshake plus three message exchanges, with
// server processing times Δ₁ for key verification and Δ₂ for completing
// the key exchange), the time to receive the complete JSON video
// information as
//
//	ψᵢ = 6·Rᵢ + Δ₁ + Δ₂
//
// and the time until the first video packet arrives from the video
// server as πᵢ ≈ ψᵢ + ηᵢ. Because MSPlayer starts streaming on a path as
// soon as that path's JSON decodes, the fast path enjoys a head start of
// π₂ − π₁ ≈ 10·(θ−1)·R₁ where θ = R₂/R₁.
//
// The scripts here reproduce that sequence message by message, so that
// bootstrap times measured over netem match the closed forms, which are
// also provided for direct computation.
package handshake

import (
	"encoding/binary"
	"fmt"
	"time"
)

// Message types of the emulated exchange, in protocol order.
const (
	msgClientHello       = 1
	msgServerHello       = 2
	msgCertificateReq    = 3 // client ack prompting certificate delivery
	msgCertificate       = 4 // certificate + ServerHelloDone + ServerKeyExchange
	msgClientKeyExchange = 5
	msgFinished          = 6 // NewSessionTicket + Finished
)

// Wire sizes of each message, chosen to mirror a typical TLS 1.2
// exchange (certificates dominate).
var msgSize = map[byte]int{
	msgClientHello:       220,
	msgServerHello:       90,
	msgCertificateReq:    60,
	msgCertificate:       3100,
	msgClientKeyExchange: 330,
	msgFinished:          260,
}

// Params configures the server-side processing delays of Fig. 1.
type Params struct {
	// Delta1 is the key-verification time charged before the certificate
	// flight.
	Delta1 time.Duration
	// Delta2 is the key-exchange completion time charged before the
	// Finished flight.
	Delta2 time.Duration
}

// Eta returns the closed-form secure-connection establishment time
// η = 4R + Δ₁ + Δ₂ for a path with round-trip time rtt.
func (p Params) Eta(rtt time.Duration) time.Duration {
	return 4*rtt + p.Delta1 + p.Delta2
}

// Psi returns the closed-form time ψ = 6R + Δ₁ + Δ₂ to receive the
// complete JSON video information over a path with round-trip time rtt.
func (p Params) Psi(rtt time.Duration) time.Duration {
	return 6*rtt + p.Delta1 + p.Delta2
}

// Pi returns the closed-form time π ≈ ψ + η until the first video packet
// arrives over a path with round-trip time rtt, assuming the web proxy
// and video server are equally distant and equally provisioned.
func (p Params) Pi(rtt time.Duration) time.Duration {
	return p.Psi(rtt) + p.Eta(rtt)
}

// HeadStart returns the closed-form lead π₂ − π₁ ≈ 10·(θ−1)·R₁ that the
// fast path (RTT r1) holds over the slow path (RTT r2 ≥ r1), ignoring
// the Δ terms as the paper does.
func HeadStart(r1, r2 time.Duration) time.Duration {
	return 10 * (r2 - r1)
}

// HeaderLen is the wire size of a handshake message header: one type
// byte plus a big-endian uint32 body length.
const HeaderLen = 5

// wireImages holds the rendered wire form (header plus all-zero body)
// of every message type. The images are immutable and shared: message
// bodies carry no information, so one rendering serves every
// connection, and endpoints hand the shared slice to TryWrite (which
// copies it into pacing segments).
var wireImages = func() map[byte][]byte {
	m := make(map[byte][]byte, len(msgSize))
	for typ, size := range msgSize {
		b := make([]byte, HeaderLen+size)
		b[0] = typ
		binary.BigEndian.PutUint32(b[1:HeaderLen], uint32(size))
		m[typ] = b
	}
	return m
}()

// Wire returns the immutable wire image of message typ (header plus
// zero-filled body). Callers must not modify the returned slice.
func Wire(typ byte) []byte { return wireImages[typ] }

// ParseHeader validates a received message header against the expected
// type and returns the body length that follows. hdr must hold
// HeaderLen bytes.
func ParseHeader(hdr []byte, want byte) (int, error) {
	if hdr[0] != want {
		return 0, fmt.Errorf("handshake: got message %d, want %d", hdr[0], want)
	}
	size := binary.BigEndian.Uint32(hdr[1:HeaderLen])
	if size > 1<<20 {
		return 0, fmt.Errorf("handshake: message %d implausibly large (%d bytes)", hdr[0], size)
	}
	return int(size), nil
}

// ServerStep is one request-response leg of the server side of the
// exchange: expect a message of type Expect, charge Delay of processing
// time, then send the Send wire image. Δ₁ is charged before the
// certificate flight and Δ₂ before the Finished flight.
type ServerStep struct {
	Expect byte
	Delay  time.Duration
	Send   []byte
}

// ServerScript returns the server side of the exchange as a replayable
// script with p's processing delays in place.
func ServerScript(p Params) [3]ServerStep {
	return [3]ServerStep{
		{Expect: msgClientHello, Send: Wire(msgServerHello)},
		{Expect: msgCertificateReq, Delay: p.Delta1, Send: Wire(msgCertificate)},
		{Expect: msgClientKeyExchange, Delay: p.Delta2, Send: Wire(msgFinished)},
	}
}

// ClientStep is one send-then-expect leg of the client side of the
// exchange, mirroring ServerStep.
type ClientStep struct {
	Send   []byte
	Expect byte
}

// ClientScript returns the client side of the exchange as a replayable
// script. On receipt of the last leg's message the connection is
// "secure" and ready for application data.
func ClientScript() [3]ClientStep {
	return [3]ClientStep{
		{Send: Wire(msgClientHello), Expect: msgServerHello},
		{Send: Wire(msgCertificateReq), Expect: msgCertificate},
		{Send: Wire(msgClientKeyExchange), Expect: msgFinished},
	}
}

// Both scripts run on the netem completion API: httpx.Serve plays
// ServerScript in every connection machine, httpx.EventTransport plays
// ClientScript before a connection's first request, and the Fig. 1
// probe in internal/bench plays ClientScript alone to time η.
