// Package origin emulates the YouTube service architecture MSPlayer
// talks to: web proxy servers that authenticate requests and return
// video metadata plus signed access tokens in JSON, and video servers
// that serve the actual bytes via HTTP range requests. A Cluster deploys
// replicated instances of both into multiple access networks over a
// netem Network, providing the source diversity the paper exploits.
package origin

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/netem"
	"repro/internal/videostore"
)

// FormatInfo is the JSON description of one downloadable format, the
// equivalent of a YouTube itag entry.
type FormatInfo struct {
	Itag          int    `json:"itag"`
	Quality       string `json:"quality"`
	MimeType      string `json:"mimeType"`
	Bitrate       int64  `json:"bitrate"`
	ContentLength int64  `json:"contentLength"`
}

// VideoInfo is the JSON object a web proxy returns for a watch request:
// everything the player needs to synthesize video-server URLs.
type VideoInfo struct {
	VideoID       string       `json:"videoId"`
	Title         string       `json:"title"`
	Author        string       `json:"author"`
	LengthSeconds int64        `json:"lengthSeconds"`
	Formats       []FormatInfo `json:"formats"`
	// VideoServers lists replica addresses in the network the request
	// arrived through, preferred server first.
	VideoServers []string `json:"videoServers"`
	// Network is the access network this metadata view belongs to.
	Network string `json:"network"`
	// Token authorizes videoplayback requests until Expire (Unix secs).
	Token  string `json:"token"`
	Expire int64  `json:"expire"`
	// ClientAddr echoes the requester's address, as YouTube embeds the
	// client's public IP in its URLs.
	ClientAddr string `json:"clientAddr"`
}

// WebProxy is the per-network metadata/authentication front end.
type WebProxy struct {
	network  string // access network served, e.g. "wifi"
	catalog  *videostore.Catalog
	servers  func() []string // live video-server addresses in the network
	tokens   *TokenMAC
	tokenTTL time.Duration
	clock    *netem.Clock
}

// NewWebProxy builds a web proxy for one access network. servers must
// return the current replica list (first entry preferred).
func NewWebProxy(network string, catalog *videostore.Catalog, servers func() []string,
	secret []byte, ttl time.Duration, clock *netem.Clock) *WebProxy {
	if ttl <= 0 {
		ttl = TokenTTL
	}
	return &WebProxy{
		network: network, catalog: catalog, servers: servers,
		tokens: NewTokenMAC(secret), tokenTTL: ttl, clock: clock,
	}
}

// Handler returns the proxy's HTTP handler. It serves
// GET /watch?v=<11-char id> with a VideoInfo JSON document.
func (p *WebProxy) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/watch", p.handleWatch)
	return mux
}

func (p *WebProxy) handleWatch(w http.ResponseWriter, r *http.Request) {
	id := ParsePlaybackQuery(r.URL.RawQuery).V
	v, err := p.catalog.Get(id)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	expire := p.clock.Now().Add(p.tokenTTL)
	info := VideoInfo{
		VideoID:       v.ID,
		Title:         v.Title,
		Author:        v.Author,
		LengthSeconds: int64(v.Duration.Seconds()),
		VideoServers:  p.servers(),
		Network:       p.network,
		Token:         p.tokens.Sign(v.ID, expire, p.network),
		Expire:        expire.Unix(),
		ClientAddr:    r.RemoteAddr,
	}
	for _, f := range v.Formats {
		info.Formats = append(info.Formats, FormatInfo{
			Itag:          f.Itag,
			Quality:       f.Quality,
			MimeType:      f.MimeType,
			Bitrate:       f.Bitrate,
			ContentLength: v.Size(f),
		})
	}
	// Pad the response toward the ~20 packets of JSON the paper measures
	// for a watch request, so bootstrap timing is faithful.
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Padding", jsonPadding)
	if err := json.NewEncoder(w).Encode(info); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// jsonPadding inflates watch responses to a realistic size (YouTube's
// JSON payloads run to tens of kilobytes of player configuration).
// Nobody reads it, but every watch pays for it in host time: 20 KB the
// server copies into its write buffer and the client accumulates, scans
// for CRLF and checks as a header value.
var jsonPadding = func() string {
	b := make([]byte, 20*1024)
	for i := range b {
		b[i] = 'a' + byte(i%26)
	}
	return string(b)
}()

// PlaybackURL synthesizes the videoplayback URL for a given server
// address and format, as MSPlayer does after decoding the JSON. The
// bytes are url.Values' encoding: keys in sorted order, each value
// query-escaped (the decimal integers need no escaping), built in one
// buffer.
func (info *VideoInfo) PlaybackURL(serverAddr string, itag int) string {
	var num [20]byte
	var b strings.Builder
	b.Grow(len("http:///videoplayback?expire=&itag=&net=&token=&v=") + len(serverAddr) +
		2*len(num) + len(info.Network) + len(info.Token) + len(info.VideoID))
	b.WriteString("http://")
	b.WriteString(serverAddr)
	b.WriteString("/videoplayback?expire=")
	b.Write(strconv.AppendInt(num[:0], info.Expire, 10))
	b.WriteString("&itag=")
	b.Write(strconv.AppendInt(num[:0], int64(itag), 10))
	b.WriteString("&net=")
	b.WriteString(url.QueryEscape(info.Network))
	b.WriteString("&token=")
	b.WriteString(url.QueryEscape(info.Token))
	b.WriteString("&v=")
	b.WriteString(url.QueryEscape(info.VideoID))
	return b.String()
}

// PlaybackQuery holds the parameters of a videoplayback request.
type PlaybackQuery struct {
	V, Itag, Token, Expire, Net string
}

// ParsePlaybackQuery reads the videoplayback parameters out of a raw
// query in one scan, without building url.Values. Each field is what
// url.ParseQuery(raw).Get gives for its key: the first value wins,
// pairs containing ';' are skipped, only keys and values holding '%'
// or '+' are unescaped, and a pair that fails to unescape is skipped.
func ParsePlaybackQuery(raw string) PlaybackQuery {
	var q PlaybackQuery
	var seen uint8
	for raw != "" {
		var pair string
		pair, raw, _ = strings.Cut(raw, "&")
		if pair == "" || strings.IndexByte(pair, ';') >= 0 {
			continue
		}
		key, value, _ := strings.Cut(pair, "=")
		key, ok := queryUnescape(key)
		if !ok {
			continue
		}
		f, bit := q.field(key)
		if f == nil || seen&bit != 0 {
			continue
		}
		if value, ok = queryUnescape(value); ok {
			*f = value
			seen |= bit
		}
	}
	return q
}

// field maps a query key to its field and a bit of its own.
func (q *PlaybackQuery) field(key string) (*string, uint8) {
	switch key {
	case "v":
		return &q.V, 1 << 0
	case "itag":
		return &q.Itag, 1 << 1
	case "token":
		return &q.Token, 1 << 2
	case "expire":
		return &q.Expire, 1 << 3
	case "net":
		return &q.Net, 1 << 4
	}
	return nil, 0
}

// queryUnescape is url.QueryUnescape, called only where it can change
// s.
func queryUnescape(s string) (string, bool) {
	if strings.IndexByte(s, '%') < 0 && strings.IndexByte(s, '+') < 0 {
		return s, true
	}
	u, err := url.QueryUnescape(s)
	return u, err == nil
}

// ContentLengthFor returns the advertised size for itag, or an error if
// the format is absent.
func (info *VideoInfo) ContentLengthFor(itag int) (int64, error) {
	for _, f := range info.Formats {
		if f.Itag == itag {
			return f.ContentLength, nil
		}
	}
	return 0, fmt.Errorf("origin: itag %d not in video info", itag)
}
