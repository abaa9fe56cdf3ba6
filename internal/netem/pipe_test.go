package netem

import (
	"bytes"
	"io"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/netem/trace"
)

// transferTime sends size bytes through a fresh pipe with the given params
// and returns the emulated duration from first write to full read. Both
// ends run as clock participants, so every instant between their parks
// is pinned and the duration is a pure function of the link.
func transferTime(t *testing.T, size int, p LinkParams) time.Duration {
	t.Helper()
	clock := NewVirtualClock()
	defer clock.Stop()
	client, server := Pipe(clock, p, p, "c", "s")
	start := clock.Now()
	var n int64
	var err error
	var end time.Time
	goAll(clock, func(wp *Participant) {
		server.Bind(wp)
		if _, err := server.Write(make([]byte, size)); err != nil {
			t.Errorf("write: %v", err)
		}
		server.Close()
	}, func(rp *Participant) {
		client.Bind(rp)
		n, err = io.Copy(io.Discard, client)
		end = clock.Now()
	})()
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if int(n) != size {
		t.Fatalf("read %d bytes, want %d", n, size)
	}
	return end.Sub(start)
}

func TestPipeTransferTimeMatchesRatePlusDelay(t *testing.T) {
	p := LinkParams{Rate: Mbps(8), Delay: 25 * time.Millisecond} // 1 MB/s
	size := 1 << 20                                              // 1 MiB -> ~1.05 s + 25 ms
	got := transferTime(t, size, p)
	want := time.Duration(float64(size)/Mbps(8)*float64(time.Second)) + p.Delay
	if got < want*95/100 || got > want*115/100 {
		t.Fatalf("transfer time = %v, want ~%v", got, want)
	}
}

func TestPipeDelayDominatesSmallTransfer(t *testing.T) {
	p := LinkParams{Rate: Mbps(100), Delay: 40 * time.Millisecond}
	got := transferTime(t, 100, p)
	if got < 40*time.Millisecond || got > 60*time.Millisecond {
		t.Fatalf("small transfer time = %v, want ~40ms", got)
	}
}

func TestPipeSlowStartRampsUp(t *testing.T) {
	base := LinkParams{Rate: Mbps(50), Delay: 25 * time.Millisecond}
	ss := base
	ss.SlowStart = true
	size := 256 << 10
	fast := transferTime(t, size, base)
	ramped := transferTime(t, size, ss)
	if ramped <= fast {
		t.Fatalf("slow start transfer (%v) should exceed unramped (%v)", ramped, fast)
	}
	// The ramp should cost at least one extra RTT for a 256 KB transfer
	// on a 50 Mb/s, 50 ms RTT path (BDP ~312 KB, so most of the transfer
	// happens inside slow start).
	if ramped-fast < 25*time.Millisecond {
		t.Fatalf("slow start penalty only %v, want >= 25ms", ramped-fast)
	}
}

func TestPipeLossAddsPenalty(t *testing.T) {
	base := LinkParams{Rate: Mbps(8), Delay: 25 * time.Millisecond, Seed: 42}
	lossy := base
	lossy.LossProb = 0.02
	clean := transferTime(t, 512<<10, base)
	withLoss := transferTime(t, 512<<10, lossy)
	if withLoss <= clean {
		t.Fatalf("lossy transfer (%v) should exceed clean (%v)", withLoss, clean)
	}
}

func TestPipeDataIntegrity(t *testing.T) {
	clock := NewVirtualClock()
	defer clock.Stop()
	p := LinkParams{Rate: Mbps(20), Delay: 5 * time.Millisecond, Jitter: 2 * time.Millisecond, Seed: 7}
	client, server := Pipe(clock, p, p, "c", "s")

	payload := make([]byte, 300<<10)
	rand.New(rand.NewSource(1)).Read(payload)
	var got []byte
	var err error
	goAll(clock, func(p *Participant) {
		server.Bind(p)
		// Write in odd-sized slabs to exercise segmentation.
		for off := 0; off < len(payload); {
			n := 777
			if off+n > len(payload) {
				n = len(payload) - off
			}
			if _, err := server.Write(payload[off : off+n]); err != nil {
				t.Errorf("write: %v", err)
				return
			}
			off += n
		}
		server.Close()
	}, func(p *Participant) {
		client.Bind(p)
		got, err = io.ReadAll(client)
	})()
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload corrupted: got %d bytes, want %d", len(got), len(payload))
	}
}

func TestPipeBidirectional(t *testing.T) {
	clock := NewVirtualClock()
	defer clock.Stop()
	p := LinkParams{Rate: Mbps(10), Delay: 10 * time.Millisecond}
	client, server := Pipe(clock, p, p, "c", "s")

	var got []byte
	var err error
	goAll(clock, func(p *Participant) {
		server.Bind(p)
		buf := make([]byte, 5)
		if _, err := io.ReadFull(server, buf); err != nil {
			t.Errorf("server read: %v", err)
			return
		}
		server.Write(append([]byte("re:"), buf...))
		server.Close()
	}, func(p *Participant) {
		client.Bind(p)
		client.Write([]byte("hello"))
		got, err = io.ReadAll(client)
	})()
	if err != nil {
		t.Fatalf("client read: %v", err)
	}
	if string(got) != "re:hello" {
		t.Fatalf("echo = %q", got)
	}
}

func TestPipeCloseDrainsThenEOF(t *testing.T) {
	clock := NewVirtualClock()
	defer clock.Stop()
	p := LinkParams{Rate: Mbps(8), Delay: 20 * time.Millisecond}
	client, server := Pipe(clock, p, p, "c", "s")
	drv := clock.Register()
	defer drv.Unregister()
	client.Bind(drv)
	server.Bind(drv)
	server.Write([]byte("tail data"))
	server.Close()
	got, err := io.ReadAll(client)
	if err != nil {
		t.Fatalf("read after close: %v", err)
	}
	if string(got) != "tail data" {
		t.Fatalf("got %q, want %q", got, "tail data")
	}
}

func TestPipeAbortSurfacesError(t *testing.T) {
	clock := NewVirtualClock()
	defer clock.Stop()
	p := LinkParams{Rate: Mbps(8), Delay: 20 * time.Millisecond}
	client, server := Pipe(clock, p, p, "c", "s")
	errCh := make(chan error, 1)
	clock.Go(func(p *Participant) {
		client.Bind(p)
		buf := make([]byte, 10)
		_, err := client.Read(buf)
		errCh <- err
	})
	waitParked(clock, 1)
	server.Abort(ErrServerDown)
	select {
	case err := <-errCh:
		if err != ErrServerDown {
			t.Fatalf("read error = %v, want ErrServerDown", err)
		}
	case <-time.After(2 * time.Second): //detlint:allow wallclock -- test watchdog against emulator deadlock runs on wall time
		t.Fatal("abort did not wake reader")
	}
}

func TestPipeSendBufferBlocksWriter(t *testing.T) {
	clock := NewVirtualClock()
	defer clock.Stop()
	p := LinkParams{Rate: Mbps(1), Delay: 10 * time.Millisecond, SendBuf: 64 << 10}
	client, server := Pipe(clock, p, p, "c", "s")

	wrote := make(chan struct{})
	clock.Go(func(p *Participant) {
		server.Bind(p)
		buf := make([]byte, 512<<10) // far larger than SendBuf
		server.Write(buf)
		close(wrote)
	})
	select {
	case <-wrote:
		t.Fatal("writer did not block on full send buffer")
	case <-time.After(50 * time.Millisecond): //detlint:allow wallclock -- short real wait proves the write stays blocked
	}
	clock.Go(func(p *Participant) {
		client.Bind(p)
		io.Copy(io.Discard, client)
	})
	select {
	case <-wrote:
	case <-time.After(5 * time.Second): //detlint:allow wallclock -- test watchdog against emulator deadlock runs on wall time
		t.Fatal("writer never unblocked while reader drained")
	}
}

func TestPipeArrivalsFIFO(t *testing.T) {
	// Property: with jitter and loss enabled, bytes still arrive in order.
	f := func(seed int64, sizes []uint16) bool {
		if len(sizes) == 0 || len(sizes) > 20 {
			return true
		}
		clock := NewVirtualClock()
		defer clock.Stop()
		p := LinkParams{
			Rate: Mbps(10), Delay: 5 * time.Millisecond,
			Jitter: 10 * time.Millisecond, LossProb: 0.05, Seed: seed,
		}
		client, server := Pipe(clock, p, p, "c", "s")
		var want []byte
		var got []byte
		var err error
		read := func(p *Participant) {
			client.Bind(p)
			got, err = io.ReadAll(client)
		}
		goAll(clock, func(p *Participant) {
			server.Bind(p)
			b := byte(0)
			for _, s := range sizes {
				n := int(s)%4096 + 1
				chunk := bytes.Repeat([]byte{b}, n)
				server.Write(chunk)
				b++
			}
			server.Close()
		}, read)()
		b := byte(0)
		for _, s := range sizes {
			n := int(s)%4096 + 1
			want = append(want, bytes.Repeat([]byte{b}, n)...)
			b++
		}
		return err == nil && bytes.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestTraceOutageStallsTransfer(t *testing.T) {
	clock := NewVirtualClock()
	defer clock.Stop()
	start := clock.Now()
	p := LinkParams{
		Trace: trace.Outage(trace.Constant(Mbps(8)), start.Add(100*time.Millisecond), 2*time.Second),
		Delay: 10 * time.Millisecond,
	}
	client, server := Pipe(clock, p, p, "c", "s")
	var end time.Time
	goAll(clock, func(p *Participant) {
		server.Bind(p)
		server.Write(make([]byte, 1<<20))
		server.Close()
	}, func(p *Participant) {
		client.Bind(p)
		io.Copy(io.Discard, client)
		end = clock.Now()
	})()
	elapsed := end.Sub(start)
	if elapsed < 2*time.Second {
		t.Fatalf("transfer finished in %v despite a 2s outage", elapsed)
	}
}
