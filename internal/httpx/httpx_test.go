package httpx

import (
	"errors"
	"io"
	"net/http"
	"testing"
	"time"

	"repro/internal/netem"
)

// testServer runs the httpx server (with handshake) on an emulated
// network and returns an interface to reach it.
func testServer(t *testing.T, h http.Handler) *netem.Interface {
	t.Helper()
	_, iface, _ := blackholeHarness(t, h)
	return iface
}

func blobHandler(blob []byte) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/blob", func(w http.ResponseWriter, r *http.Request) {
		http.ServeContent(w, r, "blob", time.Unix(0, 0), readSeeker(blob))
	})
	mux.HandleFunc("/noranges", func(w http.ResponseWriter, r *http.Request) {
		w.Write(blob) // ignores Range: returns 200 with full body
	})
	mux.HandleFunc("/forbidden", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "no", http.StatusForbidden)
	})
	return mux
}

func readSeeker(b []byte) io.ReadSeeker {
	return io.NewSectionReader(readerAt(b), 0, int64(len(b)))
}

type readerAt []byte

func (r readerAt) ReadAt(p []byte, off int64) (int, error) {
	if off >= int64(len(r)) {
		return 0, io.EOF
	}
	n := copy(p, r[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// driver issues requests on an EventTransport as the clock's driver,
// the way Player.Run drives a session: each request starts as a step on
// the transport's loop and the driver runs the clock's events until the
// completion callback fires.
type driver struct {
	p       *netem.Participant
	et      *EventTransport
	stalled bool // an await ran out of events before its callback
}

// newDriver returns a driver for p over a fresh EventTransport on
// iface with a private loop.
func newDriver(p *netem.Participant, iface *netem.Interface) *driver {
	return &driver{p: p, et: NewEventTransport(iface, p.Clock(), netem.NewLoop())}
}

// runDriver runs fn as the clock's driver with a driver over a fresh
// EventTransport on iface and shuts the transport down when fn returns.
// fn reports failures through its error.
func runDriver(t *testing.T, iface *netem.Interface, fn func(d *driver) error) {
	t.Helper()
	p := iface.Network().Clock().Register()
	defer p.Unregister()
	d := newDriver(p, iface)
	err := fn(d)
	d.et.Loop().Do(func() { d.et.Shutdown(nil) })
	if d.stalled {
		t.Fatal("the clock ran out of events before a request completed")
	}
	if err != nil {
		t.Fatal(err)
	}
}

// await runs issue as a loop step and drives the clock until it calls
// finish.
func (d *driver) await(issue func(finish func())) {
	finished := false
	d.et.Loop().Do(func() { issue(func() { finished = true }) })
	if !d.p.Await(func() bool { return finished }) {
		d.stalled = true
	}
}

// getRange fetches the inclusive range [from, to] of url, copying the
// borrowed views out before releasing them.
func (d *driver) getRange(url string, from, to int64) (body []byte, err error) {
	d.await(func(finish func()) {
		d.et.GetRangeViews(url, from, to, func(views [][]byte, release func(), rerr error) {
			if err = rerr; err == nil {
				for _, v := range views {
					body = append(body, v...)
				}
				release()
			}
			finish()
		})
	})
	return body, err
}

// get issues a bodyless GET.
func (d *driver) get(url string) (status int, body []byte, err error) {
	d.await(func(finish func()) {
		d.et.Get(url, func(s int, b []byte, gerr error) {
			status, body, err = s, b, gerr
			finish()
		})
	})
	return status, body, err
}

// TestRangeHeader checks the request a range fetch puts on the wire
// carries the inclusive Range header the server parses.
func TestRangeHeader(t *testing.T) {
	var got []string
	mux := http.NewServeMux()
	mux.HandleFunc("/blob", func(w http.ResponseWriter, r *http.Request) {
		got = append(got, r.Header.Get("Range"))
		http.ServeContent(w, r, "blob", time.Unix(0, 0), readSeeker(make([]byte, 4096)))
	})
	iface := testServer(t, mux)
	runDriver(t, iface, func(d *driver) error {
		for _, r := range [][2]int64{{0, 1023}, {4095, 4095}} {
			if _, err := d.getRange("http://srv.test:443/blob", r[0], r[1]); err != nil {
				return err
			}
		}
		return nil
	})
	if want := []string{"bytes=0-1023", "bytes=4095-4095"}; len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("Range headers = %q, want %q", got, want)
	}
}

func TestGetRangeHappyPath(t *testing.T) {
	blob := make([]byte, 64<<10)
	for i := range blob {
		blob[i] = byte(i * 7)
	}
	iface := testServer(t, blobHandler(blob))
	runDriver(t, iface, func(d *driver) error {
		got, err := d.getRange("http://srv.test:443/blob", 100, 299)
		if err != nil {
			return err
		}
		if len(got) != 200 {
			t.Errorf("length = %d", len(got))
		}
		for i, b := range got {
			if b != blob[100+i] {
				t.Errorf("byte %d mismatch", i)
				break
			}
		}
		return nil
	})
}

func TestGetRangeRejectsNon206(t *testing.T) {
	blob := make([]byte, 1024)
	iface := testServer(t, blobHandler(blob))
	runDriver(t, iface, func(d *driver) error {
		_, err := d.getRange("http://srv.test:443/noranges", 0, 99)
		var se *StatusError
		if !errors.As(err, &se) || se.Code != http.StatusOK {
			t.Errorf("err = %v, want StatusError{200}", err)
		}
		return nil
	})
}

func TestGetRangeStatusErrorCode(t *testing.T) {
	iface := testServer(t, blobHandler(nil))
	runDriver(t, iface, func(d *driver) error {
		_, err := d.getRange("http://srv.test:443/forbidden", 0, 99)
		var se *StatusError
		if !errors.As(err, &se) || se.Code != http.StatusForbidden {
			t.Errorf("err = %v, want StatusError{403}", err)
		} else if se.Error() == "" {
			t.Error("empty error string")
		}
		// A bodyless GET reports the status instead of failing.
		if status, _, err := d.get("http://srv.test:443/forbidden"); err != nil || status != http.StatusForbidden {
			t.Errorf("get = %d, %v; want 403, nil", status, err)
		}
		return nil
	})
}

func TestGetRangeInvalidRange(t *testing.T) {
	iface := testServer(t, blobHandler(nil))
	runDriver(t, iface, func(d *driver) error {
		if _, err := d.getRange("http://srv.test:443/blob", 10, 5); err == nil {
			t.Error("inverted range accepted")
		}
		return nil
	})
}

// TestGetRangeShutdownCancel: a handler that never responds — its
// continuation never resumes — so the fetch can only end through the
// transport's Shutdown, which must fail it with the shutdown error at
// the shutdown instant.
func TestGetRangeShutdownCancel(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/hang", func(w http.ResponseWriter, r *http.Request) {
		After(w, func(int64, error, func()) {})
	})
	iface := testServer(t, mux)
	clock := iface.Network().Clock()
	errCancel := errors.New("cancelled")
	runDriver(t, iface, func(d *driver) error {
		cancelAt := clock.Now().Add(5 * time.Second)
		clock.NewTimer(func() { d.et.Loop().Do(func() { d.et.Shutdown(errCancel) }) }).Schedule(cancelAt)
		_, err := d.getRange("http://srv.test:443/hang", 0, 1<<20-1)
		if !errors.Is(err, errCancel) {
			t.Errorf("err = %v, want the shutdown error", err)
		}
		if !clock.Now().Equal(cancelAt) {
			t.Errorf("fetch ended at %v, want the shutdown instant %v", clock.Now(), cancelAt)
		}
		return nil
	})
}

func TestClientReusesConnections(t *testing.T) {
	conns := map[string]bool{}
	mux := http.NewServeMux()
	mux.HandleFunc("/ping", func(w http.ResponseWriter, r *http.Request) {
		conns[r.RemoteAddr] = true
		io.WriteString(w, "pong")
	})
	iface := testServer(t, mux)
	runDriver(t, iface, func(d *driver) error {
		for i := 0; i < 5; i++ {
			status, body, err := d.get("http://srv.test:443/ping")
			if err != nil {
				return err
			}
			if status != http.StatusOK || string(body) != "pong" {
				t.Errorf("get = %d %q", status, body)
			}
		}
		return nil
	})
	// Keep-alive: all five requests share one connection.
	if len(conns) != 1 {
		t.Fatalf("requests arrived on %d connections, want 1", len(conns))
	}
}
