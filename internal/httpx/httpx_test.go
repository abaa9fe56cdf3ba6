package httpx

import (
	"context"
	"errors"
	"io"
	"net/http"
	"testing"
	"time"

	"repro/internal/handshake"
	"repro/internal/netem"
)

// testServer runs the httpx server (with handshake) on an emulated
// network and returns an interface to reach it.
func testServer(t *testing.T, h http.Handler) *netem.Interface {
	t.Helper()
	clock := netem.NewVirtualClock()
	t.Cleanup(clock.Stop)
	n := netem.NewNetwork(clock)
	inner, err := n.Listen("srv.test:443", 0)
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(clock, inner, h, handshake.Params{})
	t.Cleanup(func() { srv.Close() })
	lp := netem.LinkParams{Rate: netem.Mbps(20), Delay: 5 * time.Millisecond}
	return n.NewInterface("wifi", lp, lp)
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

func TestRangeHeader(t *testing.T) {
	if got := RangeHeader(0, 1023); got != "bytes=0-1023" {
		t.Fatalf("RangeHeader = %q", got)
	}
}

func TestGetRangeHappyPath(t *testing.T) {
	blob := make([]byte, 64<<10)
	for i := range blob {
		blob[i] = byte(i * 7)
	}
	iface := testServer(t, blobHandler(blob))
	client := NewClient(iface)
	got, err := GetRange(context.Background(), client, "http://srv.test:443/blob", 100, 299)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 200 {
		t.Fatalf("length = %d", len(got))
	}
	for i, b := range got {
		if b != blob[100+i] {
			t.Fatalf("byte %d mismatch", i)
		}
	}
}

func TestGetRangeRejectsNon206(t *testing.T) {
	blob := make([]byte, 1024)
	iface := testServer(t, blobHandler(blob))
	client := NewClient(iface)
	_, err := GetRange(context.Background(), client, "http://srv.test:443/noranges", 0, 99)
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusOK {
		t.Fatalf("err = %v, want StatusError{200}", err)
	}
}

func TestGetRangeStatusErrorCode(t *testing.T) {
	iface := testServer(t, blobHandler(nil))
	client := NewClient(iface)
	_, err := GetRange(context.Background(), client, "http://srv.test:443/forbidden", 0, 99)
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusForbidden {
		t.Fatalf("err = %v, want StatusError{403}", err)
	}
	if se.Error() == "" {
		t.Fatal("empty error string")
	}
}

func TestGetRangeInvalidRange(t *testing.T) {
	iface := testServer(t, blobHandler(nil))
	client := NewClient(iface)
	if _, err := GetRange(context.Background(), client, "http://srv.test:443/blob", 10, 5); err == nil {
		t.Fatal("inverted range accepted")
	}
}

func TestGetRangeContextCancel(t *testing.T) {
	// A handler that never responds — its continuation never resumes —
	// so the fetch can only end through cancellation. (With the
	// deterministic virtual clock any finite emulated transfer completes
	// in microseconds of wall time, so a wall-clock cancel can no longer
	// race a normal download.)
	mux := http.NewServeMux()
	mux.HandleFunc("/hang", func(w http.ResponseWriter, r *http.Request) {
		After(w, func(int64, error, func()) {})
	})
	iface := testServer(t, mux)
	client := NewClient(iface)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := GetRange(ctx, client, "http://srv.test:443/hang", 0, 1<<20-1)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond) //detlint:allow wallclock -- real sleep lets goroutines park before asserting waiter accounting
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("cancelled fetch succeeded")
		}
	case <-time.After(5 * time.Second): //detlint:allow wallclock -- test watchdog against emulator deadlock runs on wall time
		t.Fatal("cancel did not interrupt fetch")
	}
}

func TestHead(t *testing.T) {
	blob := make([]byte, 12345)
	iface := testServer(t, blobHandler(blob))
	client := NewClient(iface)
	n, err := Head(context.Background(), client, "http://srv.test:443/blob")
	if err != nil {
		t.Fatal(err)
	}
	if n != 12345 {
		t.Fatalf("content length = %d", n)
	}
	if _, err := Head(context.Background(), client, "http://srv.test:443/forbidden"); err == nil {
		t.Fatal("HEAD on 403 should error")
	}
}

func TestClientReusesConnections(t *testing.T) {
	var conns int
	mux := http.NewServeMux()
	mux.HandleFunc("/ping", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "pong")
	})
	wrapped := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mux.ServeHTTP(w, r)
	})
	iface := testServer(t, wrapped)
	client := NewClient(iface)
	_ = conns
	// Issue several requests; with keep-alive they share one conn, so
	// total time is dominated by a single handshake. We assert
	// correctness here (timing covered in netem tests).
	for i := 0; i < 5; i++ {
		resp, err := client.Get("http://srv.test:443/ping")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if string(body) != "pong" {
			t.Fatalf("body = %q", body)
		}
	}
}
