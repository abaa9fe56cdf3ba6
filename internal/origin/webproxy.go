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
	secret   []byte
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
		secret: secret, tokenTTL: ttl, clock: clock,
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
	id := r.URL.Query().Get("v")
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
		Token:         SignToken(p.secret, v.ID, expire, p.network),
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
// address and format, as MSPlayer does after decoding the JSON.
func (info *VideoInfo) PlaybackURL(serverAddr string, itag int) string {
	q := url.Values{}
	q.Set("v", info.VideoID)
	q.Set("itag", fmt.Sprint(itag))
	q.Set("token", info.Token)
	q.Set("expire", fmt.Sprint(info.Expire))
	q.Set("net", info.Network)
	return fmt.Sprintf("http://%s/videoplayback?%s", serverAddr, q.Encode())
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
