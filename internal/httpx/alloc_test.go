package httpx

import (
	"fmt"
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
	// Measured at 43 allocations per request (Go 1.24, linux/amd64),
	// client and server machines together, http.ServeContent included.
	if avg > 60 {
		t.Fatalf("keep-alive request allocates %.0f times per request, want <= 60", avg)
	}
}
