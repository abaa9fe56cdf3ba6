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
// and returns the emulated duration from first write to the reader's
// EOF. Both ends run on the completion API, so the duration is a pure
// function of the link.
func transferTime(t *testing.T, size int, p LinkParams) time.Duration {
	t.Helper()
	clock := NewVirtualClock()
	defer clock.Stop()
	drv := clock.Register()
	defer drv.Unregister()
	client, server := Pipe(clock, p, p, "c", "s")
	start := clock.Now()
	received, termErr, doneAt := drainEvented(client)
	werr := pumpEvented(server, true, make([]byte, size))
	drv.SleepUntil(start.Add(time.Hour))
	if *werr != nil {
		t.Fatalf("write: %v", *werr)
	}
	if *termErr != io.EOF {
		t.Fatalf("read: %v", *termErr)
	}
	if received.Len() != size {
		t.Fatalf("read %d bytes, want %d", received.Len(), size)
	}
	return doneAt.Sub(start)
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
	drv := clock.Register()
	defer drv.Unregister()
	p := LinkParams{Rate: Mbps(20), Delay: 5 * time.Millisecond, Jitter: 2 * time.Millisecond, Seed: 7}
	client, server := Pipe(clock, p, p, "c", "s")

	payload := make([]byte, 300<<10)
	rand.New(rand.NewSource(1)).Read(payload)
	// Write in odd-sized slabs to exercise segmentation.
	var slabs [][]byte
	for off := 0; off < len(payload); off += 777 {
		slabs = append(slabs, payload[off:min(off+777, len(payload))])
	}
	received, termErr, _ := drainEvented(client)
	werr := pumpEvented(server, true, slabs...)
	drv.SleepUntil(clock.Now().Add(time.Hour))
	if *werr != nil || *termErr != io.EOF {
		t.Fatalf("write error %v, read error %v", *werr, *termErr)
	}
	if !bytes.Equal(received.Bytes(), payload) {
		t.Fatalf("payload corrupted: got %d bytes, want %d", received.Len(), len(payload))
	}
}

func TestPipeBidirectional(t *testing.T) {
	clock := NewVirtualClock()
	defer clock.Stop()
	drv := clock.Register()
	defer drv.Unregister()
	p := LinkParams{Rate: Mbps(10), Delay: 10 * time.Millisecond}
	client, server := Pipe(clock, p, p, "c", "s")

	// The server echoes the first five bytes behind a prefix, then
	// closes.
	var req []byte
	server.OnReadable(func() {
		for len(req) < 5 {
			view, err := server.ReadBuf()
			if err != nil || view == nil {
				return
			}
			req = append(req, view...)
			server.Release(len(view))
		}
		server.OnReadable(nil)
		server.TryWrite(append([]byte("re:"), req[:5]...))
		server.Close()
	})
	received, termErr, _ := drainEvented(client)
	client.TryWrite([]byte("hello"))
	drv.SleepUntil(clock.Now().Add(time.Hour))
	if *termErr != io.EOF {
		t.Fatalf("client read: %v", *termErr)
	}
	if received.String() != "re:hello" {
		t.Fatalf("echo = %q", received)
	}
}

func TestPipeCloseDrainsThenEOF(t *testing.T) {
	clock := NewVirtualClock()
	defer clock.Stop()
	drv := clock.Register()
	defer drv.Unregister()
	p := LinkParams{Rate: Mbps(8), Delay: 20 * time.Millisecond}
	client, server := Pipe(clock, p, p, "c", "s")
	server.TryWrite([]byte("tail data"))
	server.Close()
	received, termErr, _ := drainEvented(client)
	drv.SleepUntil(clock.Now().Add(time.Second))
	if *termErr != io.EOF {
		t.Fatalf("read after close: %v", *termErr)
	}
	if received.String() != "tail data" {
		t.Fatalf("got %q, want %q", received, "tail data")
	}
}

func TestPipeAbortSurfacesError(t *testing.T) {
	clock := NewVirtualClock()
	defer clock.Stop()
	p := LinkParams{Rate: Mbps(8), Delay: 20 * time.Millisecond}
	client, server := Pipe(clock, p, p, "c", "s")
	_, termErr, _ := drainEvented(client)
	if *termErr != nil {
		t.Fatalf("idle reader saw %v before the abort", *termErr)
	}
	// The abort fires the armed readable callback at once.
	server.Abort(ErrServerDown)
	if *termErr != ErrServerDown {
		t.Fatalf("read error = %v, want ErrServerDown", *termErr)
	}
}

func TestPipeSendBufferBlocksWriter(t *testing.T) {
	clock := NewVirtualClock()
	defer clock.Stop()
	drv := clock.Register()
	defer drv.Unregister()
	p := LinkParams{Rate: Mbps(1), Delay: 10 * time.Millisecond, SendBuf: 64 << 10}
	client, server := Pipe(clock, p, p, "c", "s")

	buf := make([]byte, 512<<10) // far larger than SendBuf
	n, err := server.TryWrite(buf)
	if err != nil || n < p.SendBuf || n >= len(buf) {
		t.Fatalf("first write accepted %d of %d bytes (err %v), want the %d-byte send buffer's worth", n, len(buf), err, p.SendBuf)
	}
	// Nobody reads: a second of line time frees no space.
	drv.SleepUntil(clock.Now().Add(time.Second))
	if k, err := server.TryWrite(buf[n:]); k != 0 || err != nil {
		t.Fatalf("write into a full, undrained send buffer accepted %d bytes (err %v)", k, err)
	}
	// A reader drains, and the writer resumes through OnWritable.
	received, termErr, _ := drainEvented(client)
	werr := pumpEvented(server, true, buf[n:])
	drv.SleepUntil(clock.Now().Add(time.Hour))
	if *werr != nil || *termErr != io.EOF || received.Len() != len(buf) {
		t.Fatalf("drained %d of %d bytes (write error %v, read error %v)", received.Len(), len(buf), *werr, *termErr)
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
		drv := clock.Register()
		defer drv.Unregister()
		p := LinkParams{
			Rate: Mbps(10), Delay: 5 * time.Millisecond,
			Jitter: 10 * time.Millisecond, LossProb: 0.05, Seed: seed,
		}
		client, server := Pipe(clock, p, p, "c", "s")
		var want []byte
		var chunks [][]byte
		for i, s := range sizes {
			chunk := bytes.Repeat([]byte{byte(i)}, int(s)%4096+1)
			chunks = append(chunks, chunk)
			want = append(want, chunk...)
		}
		received, termErr, _ := drainEvented(client)
		pumpEvented(server, true, chunks...)
		drv.SleepUntil(clock.Now().Add(time.Hour))
		return *termErr == io.EOF && bytes.Equal(received.Bytes(), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestTraceOutageStallsTransfer(t *testing.T) {
	// Every virtual clock starts at the same epoch, so the outage can be
	// placed relative to the one transferTime builds.
	start := NewVirtualClock().Now()
	p := LinkParams{
		Trace: trace.Outage(trace.Constant(Mbps(8)), start.Add(100*time.Millisecond), 2*time.Second),
		Delay: 10 * time.Millisecond,
	}
	if elapsed := transferTime(t, 1<<20, p); elapsed < 2*time.Second {
		t.Fatalf("transfer finished in %v despite a 2s outage", elapsed)
	}
}
