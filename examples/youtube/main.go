// YouTube bootstrap walkthrough: performs MSPlayer's multi-source
// bootstrap by hand against the emulated YouTube origin — per-network
// DNS views, the secure watch request, JSON decoding, URL synthesis
// with the signed token, and the first range requests on both paths —
// printing each step with its emulated timestamp.
//
//	go run ./examples/youtube
package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"

	"repro"
	"repro/internal/httpx"
	"repro/internal/netem"
	"repro/internal/origin"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer, _ []string) error {
	tb, err := msplayer.NewTestbed(msplayer.YouTubeProfile(1))
	if err != nil {
		return err
	}
	defer tb.Close()
	clock := tb.Clock()
	t0 := clock.Now()
	stamp := func(format string, args ...any) {
		fmt.Fprintf(w, "[%8.3fs] %s\n", clock.Now().Sub(t0).Seconds(), fmt.Sprintf(format, args...))
	}

	// This goroutine is the walkthrough's driver, as Player.Run is a
	// session's: each request runs as a step of a private event loop
	// while the driver fires the clock's events until it completes, so
	// virtual time advances only while it waits.
	driver := clock.Register()
	defer driver.Unregister()
	loop := netem.NewLoop()
	await := func(issue func(done func())) error {
		finished := false
		loop.Do(func() { issue(func() { finished = true }) })
		if !driver.Await(func() bool { return finished }) {
			return errors.New("clock ran out of events mid-request")
		}
		return nil
	}
	getRange := func(et *httpx.EventTransport, url string, from, to int64) (n int, err error) {
		aerr := await(func(done func()) {
			et.GetRangeViews(url, from, to, func(views [][]byte, release func(), rerr error) {
				for _, v := range views {
					n += len(v)
				}
				if err = rerr; err == nil {
					release()
				}
				done()
			})
		})
		if aerr != nil {
			return 0, aerr
		}
		return n, err
	}

	for _, iface := range []*netem.Interface{tb.WiFi(), tb.LTE()} {
		network := iface.Name()
		stamp("--- path %q ---", network)

		// 1. Resolve the web proxy through this network's DNS view.
		proxies, err := tb.Cluster().Resolver().Lookup(network, origin.WebProxyName)
		if err != nil {
			return err
		}
		stamp("dns(%s) %s -> %v", network, origin.WebProxyName, proxies)

		// 2. Secure watch request: TCP + emulated TLS + GET /watch.
		et := httpx.NewEventTransport(iface, clock, loop)
		var (
			status int
			body   []byte
		)
		if aerr := await(func(done func()) {
			et.Get(fmt.Sprintf("http://%s/watch?v=qjT4T2gU9sM", proxies[0]), func(s int, b []byte, gerr error) {
				status, body, err = s, b, gerr
				done()
			})
		}); aerr != nil {
			return aerr
		}
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("watch: status %d", status)
		}
		if err != nil {
			return err
		}
		var info origin.VideoInfo
		if err := json.Unmarshal(body, &info); err != nil {
			return err
		}
		stamp("JSON decoded: %q by %s, %ds long, %d formats, servers %v, token %.16s...",
			info.Title, info.Author, info.LengthSeconds, len(info.Formats),
			info.VideoServers, info.Token)

		// 3. Synthesize the videoplayback URL and fetch the first chunk.
		url := info.PlaybackURL(info.VideoServers[0], 22)
		n, err := getRange(et, url, 0, 256<<10-1)
		if err != nil {
			return err
		}
		stamp("first 256 KB chunk fetched (%d bytes) from %s", n, info.VideoServers[0])

		// 4. Tokens are network-bound: replaying this one on the other
		// network's replica is rejected.
		other := tb.LTE()
		if network == "lte" {
			other = tb.WiFi()
		}
		otherServers, _ := tb.Cluster().Resolver().Lookup(other.Name(), origin.VideoServersName)
		crossURL := info.PlaybackURL(otherServers[0], 22)
		cross := httpx.NewEventTransport(other, clock, loop)
		_, err = getRange(cross, crossURL, 0, 1023)
		var se *httpx.StatusError
		if errors.As(err, &se) && se.Code == http.StatusForbidden {
			stamp("cross-network token replay correctly rejected (403)")
		} else if err != nil {
			stamp("cross-network fetch failed: %v", err)
		} else {
			stamp("WARNING: cross-network token replay was accepted")
		}
		loop.Do(func() {
			et.Shutdown(nil)
			cross.Shutdown(nil)
		})
	}
	fmt.Fprintln(w, "\nthe per-path bootstrap above is exactly what the player automates;")
	fmt.Fprintln(w, "note the WiFi path finishing every step ahead of LTE (the head start).")
	return nil
}
