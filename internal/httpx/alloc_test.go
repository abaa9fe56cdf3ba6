package httpx

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
)

// TestKeepAliveRequestAllocs guards the keep-alive request path: with
// pooled head buffers, request staging buffers and borrowed body views,
// a steady keep-alive range request — client machine and server
// machine together — must stay within a bounded allocation budget.
// Regressions that reintroduce per-request copies (body buffers, head
// maps, per-wake closures) blow well past it.
func TestKeepAliveRequestAllocs(t *testing.T) {
	blob := make([]byte, 256<<10)
	iface := testServer(t, blobHandler(blob))
	var avg float64
	runDriver(t, iface, func(d *driver) error {
		const size = 64 << 10
		var ferr error
		fetch := func() {
			d.await(func(finish func()) {
				d.et.GetRangeViews("http://srv.test:443/blob", 0, size-1, func(views [][]byte, release func(), err error) {
					n := 0
					for _, v := range views {
						n += len(v)
					}
					if err == nil {
						release()
						if n != size {
							err = fmt.Errorf("got %d bytes", n)
						}
					}
					ferr = err
					finish()
				})
			})
		}
		fetch() // dial + handshake + warm pools outside the measurement
		avg = testing.AllocsPerRun(20, fetch)
		return ferr
	})
	// Measured at 22 allocations per request (Go 1.24, linux/amd64, at
	// GOMAXPROCS 1, 2 and 4), client and server machines together,
	// http.ServeContent included; 25 to 28 under the race detector,
	// whose sync.Pool drops Puts at random. The ceiling is 22 plus a
	// margin of 8 for those drops.
	if avg > 30 {
		t.Fatalf("keep-alive request allocates %.0f times per request, want <= 30", avg)
	}
}

// TestServerKeepAliveRequestAllocs measures the server machine alone. A
// raw client that allocates nothing per request writes the players'
// playback head on one keep-alive connection and reads back the 206,
// which a handler frames from pre-built header values and a stable
// body, as the origin's hot path does. What is left per request is the
// machine's own work — the head parse, whose one new string is the
// Range value, the staging and the pump — and netem's share of the
// wire.
func TestServerKeepAliveRequestAllocs(t *testing.T) {
	const size = 64 << 10
	body := make([]byte, size)
	ctype, clen, crange := []string{"video/mp4"}, []string{fmt.Sprint(size)}, []string{fmt.Sprintf("bytes 0-%d/%d", size-1, size)}
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/videoplayback" || r.Header.Get("Range") == "" {
			http.Error(w, "not a playback request", http.StatusBadRequest)
			return
		}
		hw := w.Header()
		hw["Content-Type"], hw["Content-Length"], hw["Content-Range"] = ctype, clen, crange
		w.WriteHeader(http.StatusPartialContent)
		w.(*responseWriter).WriteStable(body)
	})
	clock, iface, _ := blackholeHarness(t, h)
	p := clock.Register()
	defer p.Unregister()
	conn, err := dialBlocking(p, iface, "srv.test:443")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	rw := newBlockingConn(p, conn)
	if err := clientHandshake(rw); err != nil {
		t.Fatal(err)
	}
	// Two heads alternate, as a player's ranges advance, so each parse
	// meets a Range value unlike the previous one.
	reqs := [2][]byte{[]byte(playbackHead), []byte(strings.Replace(playbackHead, "1048576-", "1048577-", 1))}
	// The first exchange warms the pools and measures the response.
	if _, err := rw.Write(reqs[1]); err != nil {
		t.Fatal(err)
	}
	var resp []byte
	buf := make([]byte, 4<<10)
	for {
		n, err := rw.Read(buf)
		if err != nil {
			t.Fatal(err)
		}
		resp = append(resp, buf[:n]...)
		if i := bytes.Index(resp, crlfcrlf); i >= 0 && len(resp) >= i+len(crlfcrlf)+size {
			break
		}
	}
	if !bytes.HasPrefix(resp, []byte("HTTP/1.1 206 ")) {
		t.Fatalf("response %.80q, want a 206", resp)
	}
	var ferr error
	i := 0
	avg := testing.AllocsPerRun(50, func() {
		i++
		if _, err := rw.Write(reqs[i%2]); err != nil {
			ferr = err
		}
		if _, err := io.ReadFull(rw, resp); err != nil {
			ferr = err
		}
	})
	if ferr != nil {
		t.Fatal(ferr)
	}
	// Measured at 1 allocation per request, the Range value (Go 1.24,
	// linux/amd64); 1 to 2 under the race detector, whose sync.Pool
	// drops Puts at random. The ceiling is 1 plus a margin of 1 for
	// those drops: a head parsed through net/http cost about 10.
	if avg > 2 {
		t.Fatalf("the server allocates %.0f times per keep-alive request, want <= 2", avg)
	}
}
