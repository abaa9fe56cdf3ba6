package origin

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"strconv"
	"time"
)

// TokenTTL is the default validity of an access token, matching the
// one-hour tokens issued by the YouTube web proxy servers.
const TokenTTL = time.Hour

// SignToken computes the HMAC-SHA256 access token binding a video, an
// expiry instant and the requesting network, mirroring how YouTube
// tokens bind the video, a deadline and the client's public IP.
// Exported so other emulated tiers of the deployment — the edge caches
// fronting the origin — can mint fill tokens for their backhaul
// requests with the shared cluster secret.
func SignToken(secret []byte, videoID string, expire time.Time, network string) string {
	return NewTokenMAC(secret).Sign(videoID, expire, network)
}

// VerifyToken checks token validity for the given video/network at
// emulated time now. It returns a descriptive error for expired or
// forged tokens so experiments can distinguish the two.
func VerifyToken(secret []byte, videoID, network, token, expireUnix string, now time.Time) error {
	return NewTokenMAC(secret).Verify(videoID, network, token, expireUnix, now)
}

// TokenMAC signs and verifies access tokens under one secret. It keys
// one HMAC-SHA256 at construction and reuses it, with its message and
// digest buffers, for every token, so a check on the request path
// allocates nothing. A TokenMAC is not safe for concurrent use, and
// each VideoServer, WebProxy and edge Cache owns one, so their handlers
// must not run concurrently: in the emulation the clock's one driver
// runs them all, and a net/http server, which serves each connection
// on its own goroutine, must run them one request at a time, as
// cmd/origin does.
type TokenMAC struct {
	mac hash.Hash
	buf []byte // the signed message, then its digest
	hex [2 * sha256.Size]byte
}

// NewTokenMAC keys a TokenMAC with secret.
func NewTokenMAC(secret []byte) *TokenMAC {
	return &TokenMAC{mac: hmac.New(sha256.New, secret), buf: make([]byte, 0, 64)}
}

// sum computes the hex token for video|expire|network into m.hex.
func (m *TokenMAC) sum(videoID string, expire int64, network string) []byte {
	b := append(m.buf[:0], videoID...)
	b = append(b, '|')
	b = strconv.AppendInt(b, expire, 10)
	b = append(b, '|')
	b = append(b, network...)
	m.mac.Reset()
	m.mac.Write(b)
	m.buf = m.mac.Sum(b[:0])
	hex.Encode(m.hex[:], m.buf)
	return m.hex[:]
}

// Sign returns the token SignToken returns for the same arguments.
func (m *TokenMAC) Sign(videoID string, expire time.Time, network string) string {
	return string(m.sum(videoID, expire.Unix(), network))
}

// Verify is VerifyToken under m's secret, with the same results and
// error texts.
func (m *TokenMAC) Verify(videoID, network, token, expireUnix string, now time.Time) error {
	exp, err := strconv.ParseInt(expireUnix, 10, 64)
	if err != nil {
		return fmt.Errorf("origin: malformed expire %q", expireUnix)
	}
	expire := time.Unix(exp, 0)
	if now.After(expire) {
		return fmt.Errorf("origin: token expired at %v", expire)
	}
	if !equalConstantTime(m.sum(videoID, exp, network), token) {
		return fmt.Errorf("origin: token signature mismatch")
	}
	return nil
}

// equalConstantTime is hmac.Equal for a string operand, which it reads
// in place rather than converting: equal lengths and bytes, compared in
// time independent of where they differ.
func equalConstantTime(want []byte, got string) bool {
	if len(want) != len(got) {
		return false
	}
	var d byte
	for i := range want {
		d |= want[i] ^ got[i]
	}
	return d == 0
}
