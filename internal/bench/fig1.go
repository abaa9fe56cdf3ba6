package bench

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/handshake"
	"repro/internal/httpx"
	"repro/internal/netem"
)

// Fig1Row compares the measured secure-bootstrap timings over one
// emulated path against the paper's closed forms (Fig. 1 / §3.2):
// η = 4R+Δ₁+Δ₂ to establish the secure connection, ψ = 6R+Δ₁+Δ₂ to
// receive the complete JSON, and the head start 10(θ−1)R₁ the fast path
// gains over a path with θ× the RTT.
type Fig1Row struct {
	RTT         time.Duration
	Theta       float64
	EtaMeasured time.Duration
	EtaModel    time.Duration
	PsiMeasured time.Duration
	PsiModel    time.Duration
	HeadStart   time.Duration // closed form vs the θ=1 base path
}

// fig1JSONSize approximates the ~20 packets of watch-request JSON.
const fig1JSONSize = 28 * 1024

// Fig1 validates the HTTPS-bootstrap timing model by running the
// message sequence of Fig. 1 over emulated paths with RTT ratios
// θ ∈ {1, 2, 3} and comparing measured η/ψ to the closed forms.
func Fig1(w io.Writer, opt Options) []Fig1Row {
	opt = opt.withDefaults()
	header(w, "Figure 1: HTTPS bootstrap timing model validation")
	params := handshake.Params{Delta1: 4 * time.Millisecond, Delta2: 3 * time.Millisecond}
	baseRTT := 25 * time.Millisecond
	var out []Fig1Row
	for _, theta := range []float64{1, 2, 3} {
		rtt := time.Duration(float64(baseRTT) * theta)
		eta, psi, err := measureBootstrap(rtt, params)
		if err != nil {
			fmt.Fprintf(w, "  ! theta %.1f failed: %v\n", theta, err)
			continue
		}
		row := Fig1Row{
			RTT: rtt, Theta: theta,
			EtaMeasured: eta, EtaModel: params.Eta(rtt),
			PsiMeasured: psi, PsiModel: params.Psi(rtt),
			HeadStart: handshake.HeadStart(baseRTT, rtt),
		}
		fmt.Fprintf(w, "  theta=%.1f RTT=%v  eta %-8v (model %-8v)  psi %-8v (model %-8v)  head-start %v\n",
			theta, rtt, row.EtaMeasured.Round(time.Millisecond), row.EtaModel,
			row.PsiMeasured.Round(time.Millisecond), row.PsiModel, row.HeadStart)
		out = append(out, row)
	}
	return out
}

// fig1WatchURL is the watch request whose JSON response ψ times.
const fig1WatchURL = "http://proxy.test:443/watch?v=qjT4T2gU9sM"

// measureBootstrap runs the Fig. 1 sequence over a fresh emulated path
// and returns the measured η (secure connection established) and ψ
// (complete JSON received), each from the instant its dial is issued.
// The web proxy is an httpx server answering with a JSON-sized body; η
// plays the client side of the handshake alone, ψ is the session
// client's fetch of the watch URL on a fresh connection.
func measureBootstrap(rtt time.Duration, params handshake.Params) (eta, psi time.Duration, err error) {
	clock := netem.NewVirtualClock()
	defer clock.Stop()
	network := netem.NewNetwork(clock)
	l, err := network.Listen("proxy.test:443", 0)
	if err != nil {
		return 0, 0, err
	}
	body := make([]byte, fig1JSONSize)
	srv := httpx.Serve(clock, l, http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		w.Write(body)
	}), params)
	defer srv.Close()

	// The measuring goroutine is the clock's driver: it runs events
	// until each measurement's callback has fired, so virtual time
	// advances only while it waits and the measured η/ψ are
	// deterministic.
	part := clock.Register()
	defer part.Unregister()
	link := netem.LinkParams{Rate: netem.Mbps(20), Delay: rtt / 2, SlowStart: true}
	iface := network.NewInterface("probe", link, link)

	start := clock.Now()
	if aerr := await(part, func(done func()) { secure(iface, "proxy.test:443", func(e error) { err = e; done() }) }); aerr != nil {
		return 0, 0, aerr
	}
	if err != nil {
		return 0, 0, err
	}
	eta = clock.Now().Sub(start)

	loop := netem.NewLoop()
	et := httpx.NewEventTransport(iface, clock, loop)
	start = clock.Now()
	aerr := await(part, func(done func()) {
		loop.Do(func() {
			et.Get(fig1WatchURL, func(status int, got []byte, gerr error) {
				switch {
				case gerr != nil:
					err = gerr
				case status != http.StatusOK || len(got) != len(body):
					err = fmt.Errorf("watch: status %d, %d of %d JSON bytes", status, len(got), len(body))
				}
				et.Shutdown(nil)
				done()
			})
		})
	})
	if aerr != nil {
		return 0, 0, aerr
	}
	if err != nil {
		return 0, 0, err
	}
	psi = clock.Now().Sub(start)
	return eta, psi, nil
}

// secure dials addr from iface and plays the client side of the Fig. 1
// handshake on the completion API: each leg sends its flight, then
// collects the server's whole reply. done runs once, at the instant the
// last reply has arrived (nil) or the exchange failed; the connection is
// closed either way. Neither secure nor done parks.
func secure(iface *netem.Interface, addr string, done func(error)) {
	err := iface.DialEvent(addr, func(c *netem.Conn, err error) {
		if err != nil {
			done(err)
			return
		}
		script := handshake.ClientScript()
		leg, sent := 0, 0
		var reply []byte
		finish := func(err error) {
			leg = len(script) + 1 // later wakes find nothing to do
			c.OnReadable(nil)
			c.OnWritable(nil)
			c.Close()
			done(err)
		}
		step := func() {
			for leg < len(script) {
				if send := script[leg].Send; sent < len(send) {
					n, err := c.TryWrite(send[sent:])
					sent += n
					if err != nil {
						finish(err)
						return
					}
					if sent < len(send) {
						return // send buffer full: resume on writable
					}
				}
				view, err := c.ReadBuf()
				if err != nil {
					finish(err)
					return
				}
				if view == nil {
					return
				}
				reply = append(reply, view...)
				c.Release(len(view))
				if len(reply) < handshake.HeaderLen {
					continue
				}
				size, err := handshake.ParseHeader(reply, script[leg].Expect)
				if err != nil {
					finish(err)
					return
				}
				if len(reply) >= handshake.HeaderLen+size {
					leg, sent, reply = leg+1, 0, reply[:0]
				}
			}
			if leg == len(script) {
				finish(nil)
			}
		}
		loop := netem.NewLoop()
		wake := func() { loop.Do(step) }
		c.OnReadable(wake)
		c.OnWritable(wake)
		loop.Do(step)
	})
	if err != nil {
		done(err)
	}
}

// await drives the clock through p until the callback issue hands out
// has run, or fails when the clock runs out of events first.
func await(p *netem.Participant, issue func(done func())) error {
	fired := false
	issue(func() { fired = true })
	if !p.Await(func() bool { return fired }) {
		return errors.New("fig1: clock ran out of events before the probe completed")
	}
	return nil
}
