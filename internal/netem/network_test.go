package netem

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

func newTestNet(t *testing.T) (*Network, *Clock) {
	t.Helper()
	clock := NewVirtualClock()
	t.Cleanup(clock.Stop)
	return NewNetwork(clock), clock
}

func TestDialChargesOneRTT(t *testing.T) {
	n, clock := newTestNet(t)
	l, err := n.Listen("srv.test:80", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		c, err := l.Accept()
		if err == nil {
			c.Close()
		}
	}()
	iface := n.NewInterface("wifi", LinkParams{Rate: Mbps(10), Delay: 25 * time.Millisecond}, LinkParams{Rate: Mbps(10), Delay: 25 * time.Millisecond})
	start := clock.Now()
	c, err := iface.DialContext(context.Background(), "tcp", "srv.test:80")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if hs := clock.Now().Sub(start); hs < 50*time.Millisecond || hs > 80*time.Millisecond {
		t.Fatalf("3WHS took %v, want ~50ms", hs)
	}
}

func TestDialUnknownAddressRefused(t *testing.T) {
	n, _ := newTestNet(t)
	iface := n.NewInterface("wifi", LinkParams{Rate: Mbps(10), Delay: time.Millisecond}, LinkParams{Rate: Mbps(10), Delay: time.Millisecond})
	if _, err := iface.DialContext(context.Background(), "tcp", "nobody.test:80"); err == nil {
		t.Fatal("dial to unregistered address succeeded")
	}
}

func TestInterfaceDownAbortsConns(t *testing.T) {
	n, _ := newTestNet(t)
	l, _ := n.Listen("srv.test:80", 0)
	defer l.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	iface := n.NewInterface("wifi", LinkParams{Rate: Mbps(10), Delay: time.Millisecond}, LinkParams{Rate: Mbps(10), Delay: time.Millisecond})
	c, err := iface.DialContext(context.Background(), "tcp", "srv.test:80")
	if err != nil {
		t.Fatal(err)
	}
	<-accepted

	errCh := make(chan error, 1)
	go func() {
		_, err := c.Read(make([]byte, 1))
		errCh <- err
	}()
	time.Sleep(5 * time.Millisecond) //detlint:allow wallclock -- real sleep lets goroutines park before asserting waiter accounting
	iface.SetAlive(false)
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrInterfaceDown) {
			t.Fatalf("read error = %v, want ErrInterfaceDown", err)
		}
	case <-time.After(2 * time.Second): //detlint:allow wallclock -- test watchdog against emulator deadlock runs on wall time
		t.Fatal("interface down did not abort read")
	}
	if _, err := iface.DialContext(context.Background(), "tcp", "srv.test:80"); !errors.Is(err, ErrInterfaceDown) {
		t.Fatalf("dial on dead interface error = %v, want ErrInterfaceDown", err)
	}
	iface.SetAlive(true)
	c2, err := iface.DialContext(context.Background(), "tcp", "srv.test:80")
	if err != nil {
		t.Fatalf("dial after recovery: %v", err)
	}
	c2.Close()
}

func TestListenerCloseKillsConns(t *testing.T) {
	n, _ := newTestNet(t)
	l, _ := n.Listen("srv.test:80", 0)
	go func() {
		for {
			if _, err := l.Accept(); err != nil {
				return
			}
		}
	}()
	iface := n.NewInterface("wifi", LinkParams{Rate: Mbps(10), Delay: time.Millisecond}, LinkParams{Rate: Mbps(10), Delay: time.Millisecond})
	c, err := iface.DialContext(context.Background(), "tcp", "srv.test:80")
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		_, err := c.Read(make([]byte, 1))
		errCh <- err
	}()
	time.Sleep(5 * time.Millisecond) //detlint:allow wallclock -- real sleep lets goroutines park before asserting waiter accounting
	l.Close()
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrServerDown) {
			t.Fatalf("read error = %v, want ErrServerDown", err)
		}
	case <-time.After(2 * time.Second): //detlint:allow wallclock -- test watchdog against emulator deadlock runs on wall time
		t.Fatal("listener close did not abort conns")
	}
	// Address is released for reuse.
	if _, err := n.Listen("srv.test:80", 0); err != nil {
		t.Fatalf("re-listen after close: %v", err)
	}
}

func TestDuplicateListenRejected(t *testing.T) {
	n, _ := newTestNet(t)
	if _, err := n.Listen("srv.test:80", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Listen("srv.test:80", 0); err == nil {
		t.Fatal("duplicate listen succeeded")
	}
}

// TestHTTPOverNetem runs a real net/http server and client over the
// emulator and checks both correctness and that per-request timing
// reflects the configured RTT.
func TestHTTPOverNetem(t *testing.T) {
	n, clock := newTestNet(t)
	l, _ := n.Listen("web.test:80", 0)
	defer l.Close()

	// net/http's goroutines are invisible to the clock, so a jump could
	// land between two of the handler's conn writes. Holding virtual time
	// while the handler puts the whole response on the wire (it fits the
	// send buffer, and the declared length leaves nothing to write after
	// the handler returns) keeps the response one push.
	mux := http.NewServeMux()
	payload := make([]byte, 200<<10)
	mux.HandleFunc("/blob", func(w http.ResponseWriter, r *http.Request) {
		clock.Hold()
		defer clock.Release()
		w.Header().Set("Content-Length", fmt.Sprint(len(payload)))
		w.Write(payload)
		w.(http.Flusher).Flush()
	})
	srv := &http.Server{Handler: mux}
	go srv.Serve(l)
	defer srv.Close()

	iface := n.NewInterface("wifi",
		LinkParams{Rate: Mbps(8), Delay: 25 * time.Millisecond},
		LinkParams{Rate: Mbps(8), Delay: 25 * time.Millisecond})
	// One connection per host: the second request must wait for the first
	// conn to return to the pool (net/http does that on a goroutine, in
	// wall time) rather than race it with a fresh dial.
	client := &http.Client{Transport: &http.Transport{DialContext: iface.DialContext, MaxConnsPerHost: 1}}

	start := clock.Now()
	resp, err := client.Get("http://web.test/blob")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(body) != len(payload) {
		t.Fatalf("body length = %d, want %d", len(body), len(payload))
	}
	elapsed := clock.Now().Sub(start)
	// 3WHS (50 ms) + request RTT (50 ms) + 200 KiB at 1 MB/s (~205 ms).
	want := 300 * time.Millisecond
	if elapsed < want*8/10 || elapsed > want*16/10 {
		t.Fatalf("HTTP GET took %v, want ~%v", elapsed, want)
	}

	// Second request on the kept-alive conn skips the handshake.
	start = clock.Now()
	resp, err = client.Get("http://web.test/blob")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	second := clock.Now().Sub(start)
	if second >= elapsed {
		t.Fatalf("keep-alive request (%v) not faster than cold request (%v)", second, elapsed)
	}
}

func TestHTTPRangeRequestsOverNetem(t *testing.T) {
	n, _ := newTestNet(t)
	l, _ := n.Listen("web.test:80", 0)
	defer l.Close()

	content := make([]byte, 100<<10)
	for i := range content {
		content[i] = byte(i * 31)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/v", func(w http.ResponseWriter, r *http.Request) {
		http.ServeContent(w, r, "v.mp4", time.Unix(0, 0), newSectionReader(content))
	})
	srv := &http.Server{Handler: mux}
	go srv.Serve(l)
	defer srv.Close()

	iface := n.NewInterface("wifi",
		LinkParams{Rate: Mbps(20), Delay: 5 * time.Millisecond},
		LinkParams{Rate: Mbps(20), Delay: 5 * time.Millisecond})
	client := &http.Client{Transport: &http.Transport{DialContext: iface.DialContext}}

	req, _ := http.NewRequest("GET", "http://web.test/v", nil)
	req.Header.Set("Range", "bytes=1000-1999")
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusPartialContent {
		t.Fatalf("status = %d, want 206", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	if len(body) != 1000 {
		t.Fatalf("range body length = %d, want 1000", len(body))
	}
	for i, b := range body {
		if b != content[1000+i] {
			t.Fatalf("range byte %d = %d, want %d", i, b, content[1000+i])
		}
	}
}

func newSectionReader(b []byte) io.ReadSeeker {
	return io.NewSectionReader(byteReaderAt(b), 0, int64(len(b)))
}

type byteReaderAt []byte

func (b byteReaderAt) ReadAt(p []byte, off int64) (int, error) {
	if off >= int64(len(b)) {
		return 0, io.EOF
	}
	n := copy(p, b[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func TestManyParallelConns(t *testing.T) {
	n, _ := newTestNet(t)
	l, _ := n.Listen("srv.test:80", 0)
	defer l.Close()
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				io.Copy(c, c) // echo
				c.Close()
			}(c)
		}
	}()
	iface := n.NewInterface("wifi", LinkParams{Rate: Mbps(50), Delay: 2 * time.Millisecond}, LinkParams{Rate: Mbps(50), Delay: 2 * time.Millisecond})
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func(i int) {
			c, err := iface.DialContext(context.Background(), "tcp", "srv.test:80")
			if err != nil {
				done <- err
				return
			}
			msg := fmt.Sprintf("conn-%d-payload", i)
			c.Write([]byte(msg))
			buf := make([]byte, len(msg))
			if _, err := io.ReadFull(c, buf); err != nil {
				done <- err
				return
			}
			c.Close()
			if string(buf) != msg {
				done <- fmt.Errorf("echo mismatch: %q", buf)
				return
			}
			done <- nil
		}(i)
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
