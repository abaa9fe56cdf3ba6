package origin

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"mime"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/netem"
	"repro/internal/videostore"
)

// refSignToken and refVerifyToken are the token functions as they were
// before TokenMAC: a fresh HMAC, fmt and hex per call.
func refSignToken(secret []byte, videoID string, expire time.Time, network string) string {
	mac := hmac.New(sha256.New, secret)
	fmt.Fprintf(mac, "%s|%d|%s", videoID, expire.Unix(), network)
	return hex.EncodeToString(mac.Sum(nil))
}

func refVerifyToken(secret []byte, videoID, network, token, expireUnix string, now time.Time) error {
	exp, err := strconv.ParseInt(expireUnix, 10, 64)
	if err != nil {
		return fmt.Errorf("origin: malformed expire %q", expireUnix)
	}
	expire := time.Unix(exp, 0)
	if now.After(expire) {
		return fmt.Errorf("origin: token expired at %v", expire)
	}
	want := refSignToken(secret, videoID, expire, network)
	if !hmac.Equal([]byte(want), []byte(token)) {
		return fmt.Errorf("origin: token signature mismatch")
	}
	return nil
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// TestTokenMACMatchesVerifyToken checks that one TokenMAC, reused across
// every case, accepts and rejects exactly what VerifyToken and the
// pre-TokenMAC verifier do, with the same error texts, and signs what
// they sign.
func TestTokenMACMatchesVerifyToken(t *testing.T) {
	secret := []byte("msplayer-emulated-origin-secret")
	now := time.Unix(1_700_000_000, 0)
	expire := now.Add(TokenTTL)
	exp := strconv.FormatInt(expire.Unix(), 10)
	good := refSignToken(secret, "qjT4T2gU9sM", expire, "wifi")
	forged := []byte(good)
	forged[10] ^= 1
	m := NewTokenMAC(secret)
	if got := m.Sign("qjT4T2gU9sM", expire, "wifi"); got != good {
		t.Fatalf("Sign = %s, want %s", got, good)
	}
	if got := SignToken(secret, "qjT4T2gU9sM", expire, "wifi"); got != good {
		t.Fatalf("SignToken = %s, want %s", got, good)
	}
	for _, tc := range []struct {
		name, video, network, token, expire string
		ok                                  bool
	}{
		{"valid", "qjT4T2gU9sM", "wifi", good, exp, true},
		{"forged", "qjT4T2gU9sM", "wifi", string(forged), exp, false},
		{"wrong video", "shortclip01", "wifi", good, exp, false},
		{"wrong network", "qjT4T2gU9sM", "lte", good, exp, false},
		{"expired", "qjT4T2gU9sM", "wifi", good, strconv.FormatInt(now.Unix()-1, 10), false},
		{"malformed expire", "qjT4T2gU9sM", "wifi", good, "12x", false},
		{"empty expire", "qjT4T2gU9sM", "wifi", good, "", false},
		{"short token", "qjT4T2gU9sM", "wifi", good[:63], exp, false},
		{"long token", "qjT4T2gU9sM", "wifi", good + "0", exp, false},
		{"empty token", "qjT4T2gU9sM", "wifi", "", exp, false},
		{"uppercase hex", "qjT4T2gU9sM", "wifi", strings.ToUpper(good), exp, false},
		{"valid again", "qjT4T2gU9sM", "wifi", good, exp, true},
	} {
		got := m.Verify(tc.video, tc.network, tc.token, tc.expire, now)
		viaFunc := VerifyToken(secret, tc.video, tc.network, tc.token, tc.expire, now)
		ref := refVerifyToken(secret, tc.video, tc.network, tc.token, tc.expire, now)
		if (got == nil) != tc.ok {
			t.Errorf("%s: Verify = %v, want ok=%v", tc.name, got, tc.ok)
		}
		if errText(got) != errText(ref) || errText(viaFunc) != errText(ref) {
			t.Errorf("%s: TokenMAC %q, VerifyToken %q, reference %q", tc.name, errText(got), errText(viaFunc), errText(ref))
		}
	}
}

// TestTokenVerifyAllocs pins the request-path token check at zero
// allocations.
func TestTokenVerifyAllocs(t *testing.T) {
	secret := []byte("msplayer-emulated-origin-secret")
	now := time.Unix(1_700_000_000, 0)
	expire := now.Add(TokenTTL)
	exp := strconv.FormatInt(expire.Unix(), 10)
	m := NewTokenMAC(secret)
	token := m.Sign("qjT4T2gU9sM", expire, "wifi")
	var err error
	allocs := testing.AllocsPerRun(100, func() {
		err = m.Verify("qjT4T2gU9sM", "wifi", token, exp, now)
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("token check allocates %.1f times, want 0", allocs)
	}
}

// discardWriter is a response writer that keeps its header map across
// requests, as httpx's does, and counts the body.
type discardWriter struct {
	h      http.Header
	status int
	body   int64
}

func (d *discardWriter) Header() http.Header { return d.h }
func (d *discardWriter) WriteHeader(s int)   { d.status = s }
func (d *discardWriter) Write(b []byte) (int, error) {
	d.body += int64(len(b))
	return len(b), nil
}
func (d *discardWriter) WriteStable(b []byte) (int, error) { return d.Write(b) }

// TestCachedRangeRequestAllocs pins a cached range request through
// VideoServer.Handler() at two allocations: the Content-Range and
// Content-Length values, cut from one string held in one array.
func TestCachedRangeRequestAllocs(t *testing.T) {
	clock := netem.NewVirtualClock()
	t.Cleanup(clock.Stop)
	secret := []byte("msplayer-emulated-origin-secret")
	const addr = "video0.youtube.wifi.test:443" // as Deploy names replicas
	s := NewVideoServer(addr, "wifi", videostore.DefaultCatalog(), secret, clock, nil)
	expire := clock.Now().Add(TokenTTL)
	info := VideoInfo{VideoID: "qjT4T2gU9sM", Network: "wifi",
		Token: SignToken(secret, "qjT4T2gU9sM", expire, "wifi"), Expire: expire.Unix()}
	r := httptest.NewRequest(http.MethodGet, info.PlaybackURL(addr, 22), nil)
	r.Header.Set("Range", "bytes=100000-299999")
	h := s.Handler()
	w := &discardWriter{h: make(http.Header)}
	serve := func() {
		clear(w.h)
		w.status, w.body = 0, 0
		h.ServeHTTP(w, r)
	}
	serve() // materialize the content pages outside the measurement
	allocs := testing.AllocsPerRun(100, serve)
	if w.status != http.StatusPartialContent || w.body != 200000 {
		t.Fatalf("status %d, %d body bytes; want 206 with 200000", w.status, w.body)
	}
	if allocs > 2 {
		t.Fatalf("cached range request allocates %.1f times, want <= 2", allocs)
	}
}

// stableRecorder is an httptest recorder with the stable write path the
// httpx response writers offer.
type stableRecorder struct{ *httptest.ResponseRecorder }

func (s stableRecorder) WriteStable(b []byte) (int, error) { return s.Write(b) }

// TestCachedRangeMatchesServeContent checks serveCachedRange against
// http.ServeContent for the same range: same status, same head, same
// body bytes, through the stable write path and the plain one.
func TestCachedRangeMatchesServeContent(t *testing.T) {
	// ServeContent takes the type from the system MIME table; pin the
	// entry the cached path writes so the comparison does not depend on
	// the machine.
	if err := mime.AddExtensionType(".mp4", "video/mp4"); err != nil {
		t.Fatal(err)
	}
	v, err := videostore.DefaultCatalog().Get("shortclip01")
	if err != nil {
		t.Fatal(err)
	}
	f, err := v.Format(22)
	if err != nil {
		t.Fatal(err)
	}
	size := v.Size(f)
	for _, rg := range [][2]int64{
		{0, 0},
		{0, 99},
		{100000, 299999},         // straddles the first 256 KB page edge
		{262144, 262144 + 65535}, // starts on a page edge
		{size - 70000, size - 1}, // the last bytes
	} {
		for _, stable := range []bool{true, false} {
			hdr := fmt.Sprintf("bytes=%d-%d", rg[0], rg[1])
			r := httptest.NewRequest(http.MethodGet, "/videoplayback", nil)
			r.Header.Set("Range", hdr)
			want := httptest.NewRecorder()
			http.ServeContent(want, r, v.ID+".mp4", time.Unix(0, 0), v.Content(f))
			got := httptest.NewRecorder()
			var w http.ResponseWriter = got
			if stable {
				w = stableRecorder{got}
			}
			if !serveCachedRange(w, r, v.Content(f)) {
				t.Fatalf("%s: not served from the page cache", hdr)
			}
			name := fmt.Sprintf("%s stable=%v", hdr, stable)
			if got.Code != want.Code {
				t.Errorf("%s: status %d, ServeContent %d", name, got.Code, want.Code)
			}
			if !reflect.DeepEqual(got.Header(), want.Header()) {
				t.Errorf("%s: head %v, ServeContent %v", name, got.Header(), want.Header())
			}
			if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
				t.Errorf("%s: body differs (%d vs %d bytes)", name, got.Body.Len(), want.Body.Len())
			}
		}
	}
}

// valuesPlaybackURL is PlaybackURL as it was, through url.Values.
func valuesPlaybackURL(info *VideoInfo, serverAddr string, itag int) string {
	q := url.Values{}
	q.Set("v", info.VideoID)
	q.Set("itag", fmt.Sprint(itag))
	q.Set("token", info.Token)
	q.Set("expire", fmt.Sprint(info.Expire))
	q.Set("net", info.Network)
	return fmt.Sprintf("http://%s/videoplayback?%s", serverAddr, q.Encode())
}

// TestPlaybackURLMatchesValuesEncode checks PlaybackURL byte for byte
// against the url.Values encoding, values that need escaping included.
func TestPlaybackURLMatchesValuesEncode(t *testing.T) {
	for _, tc := range []struct {
		info VideoInfo
		addr string
		itag int
	}{
		{VideoInfo{VideoID: "qjT4T2gU9sM", Network: "wifi", Token: strings.Repeat("ab12", 16), Expire: 1_700_003_600}, "v1.youtube.wifi.test:443", 22},
		{VideoInfo{VideoID: "a b&c=d", Network: "wi fi/é", Token: "x+y%z?#", Expire: -5}, "h:1", -18},
		{VideoInfo{}, "", 0},
	} {
		want := valuesPlaybackURL(&tc.info, tc.addr, tc.itag)
		if got := tc.info.PlaybackURL(tc.addr, tc.itag); got != want {
			t.Errorf("PlaybackURL = %q, want %q", got, want)
		}
		u, err := url.Parse(tc.info.PlaybackURL(tc.addr, tc.itag))
		if err != nil {
			t.Fatal(err)
		}
		q := ParsePlaybackQuery(u.RawQuery)
		if q.V != tc.info.VideoID || q.Net != tc.info.Network || q.Token != tc.info.Token ||
			q.Itag != strconv.Itoa(tc.itag) || q.Expire != strconv.FormatInt(tc.info.Expire, 10) {
			t.Errorf("ParsePlaybackQuery(%q) = %+v, want %+v", u.RawQuery, q, tc.info)
		}
	}
}

// FuzzPlaybackQuery checks the one-scan query parser against
// url.ParseQuery(raw).Get for every key it reads.
func FuzzPlaybackQuery(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw string) {
		want, _ := url.ParseQuery(raw)
		got := ParsePlaybackQuery(raw)
		for key, val := range map[string]string{
			"v": got.V, "itag": got.Itag, "token": got.Token, "expire": got.Expire, "net": got.Net,
		} {
			if w := want.Get(key); val != w {
				t.Fatalf("%q: %s = %q, url.ParseQuery gives %q", raw, key, val, w)
			}
		}
	})
}
