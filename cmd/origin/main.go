// Command origin runs the emulated YouTube origin (web proxy + video
// servers) on real localhost TCP, so the JSON/token/range-request
// protocol can be poked with curl or a browser:
//
//	origin -addr 127.0.0.1:8080
//	curl 'http://127.0.0.1:8080/watch?v=qjT4T2gU9sM'
//	curl -H 'Range: bytes=0-1023' 'http://127.0.0.1:8080/videoplayback?...'
//
// Unlike the emulated deployment, this binary serves both roles from
// one listener and uses plain HTTP (no handshake emulation) — it exists
// to make the wire protocol inspectable, not to measure timing. Its
// clock is a virtual clock that never advances, so every token is
// stamped at, and verified against, the emulation epoch.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"

	"repro/internal/netem"
	"repro/internal/origin"
	"repro/internal/videostore"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	network := flag.String("network", "local", "network name embedded in tokens")
	flag.Parse()

	clock := netem.NewVirtualClock()
	defer clock.Stop()
	catalog := videostore.DefaultCatalog()
	secret := []byte("msplayer-local-origin")

	// One mux serving both the proxy role (/watch) and the video role
	// (/videoplayback): replicas are pointless on a single host.
	self := *addr
	proxy := origin.NewWebProxy(*network, catalog, func() []string { return []string{self} },
		secret, origin.TokenTTL, clock)
	video := origin.NewVideoServer(self, *network, catalog, secret, clock, nil)

	mux := http.NewServeMux()
	mux.Handle("/watch", proxy.Handler())
	mux.Handle("/videoplayback", video.Handler())
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "msplayer emulated origin\nvideos:\n")
		for _, id := range catalog.IDs() {
			fmt.Fprintf(w, "  /watch?v=%s\n", id)
		}
	})

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("origin listening on http://%s (videos: %v)", *addr, catalog.IDs())
	log.Fatal((&http.Server{Handler: mux}).Serve(l))
}
