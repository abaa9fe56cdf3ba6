package netem

import (
	"testing"
	"time"
)

// raceEnabled is set by race_test.go in race-detector builds.
var raceEnabled bool

// TestIdleConnReleasesDeliveredMemory pins the ring-buffer fix for the
// old `queue = queue[1:]` re-slicing: delivered segments must release
// their payload buffers immediately, so a long-lived connection that
// has gone idle pins no payload memory no matter how much traffic has
// passed through it.
func TestIdleConnReleasesDeliveredMemory(t *testing.T) {
	clock := NewVirtualClock()
	defer clock.Stop()
	drv := clock.Register()
	defer drv.Unregister()
	p := LinkParams{Rate: Mbps(50), Delay: 2 * time.Millisecond}
	client, server := Pipe(clock, p, p, "c", "s")

	const total = 4 << 20
	buf := make([]byte, 64<<10)
	slabs := make([][]byte, total/len(buf))
	for i := range slabs {
		slabs[i] = buf
	}
	received, termErr, _ := drainEvented(client)
	werr := pumpEvented(server, false, slabs...)
	drv.SleepUntil(clock.Now().Add(time.Hour))
	if *werr != nil || *termErr != nil || received.Len() != total {
		t.Fatalf("moved %d of %d bytes (write error %v, read error %v)", received.Len(), total, *werr, *termErr)
	}

	// The conn is now idle with every segment delivered and released.
	// The down direction must reference zero payload bytes: popped ring
	// slots are zeroed and their buffers returned to the pool.
	if pinned := client.in.queueCapBytes(); pinned != 0 {
		t.Fatalf("idle conn pins %d payload bytes after delivering %d", pinned, total)
	}
	if queued := client.in.queuedBytes(); queued != 0 {
		t.Fatalf("idle conn reports %d queued bytes", queued)
	}
	if held := client.in.retainedBytes(); held != 0 {
		t.Fatalf("idle conn retains %d borrowed bytes", held)
	}
}

// TestSteadyStateTransferAllocs guards the zero-copy data plane: the
// steady-state path of a netem conn — pooled segment buffers, reusable
// ring slots, borrowed views, readiness callbacks — must not allocate
// per transferred block. The old per-segment allocations cost ~25
// allocations per 256 KB.
func TestSteadyStateTransferAllocs(t *testing.T) {
	clock := NewVirtualClock()
	defer clock.Stop()
	drv := clock.Register()
	defer drv.Unregister()
	p := LinkParams{Rate: Mbps(100), Delay: time.Millisecond, SendBuf: 1 << 20}
	client, server := Pipe(clock, p, p, "c", "s")
	// Close before the driver unregisters: the pump would keep the
	// queue busy forever.
	defer server.Close()
	defer client.Close()

	const block = 256 << 10
	buf := make([]byte, block)
	pump := func() {
		for {
			n, err := server.TryWrite(buf)
			if err != nil || n < len(buf) {
				return
			}
		}
	}
	server.OnWritable(pump)
	got := 0
	client.OnReadable(func() {
		for {
			view, err := client.ReadBuf()
			if err != nil || view == nil {
				return
			}
			got += len(view)
			client.Release(len(view))
		}
	})
	pump()
	readBlock := func() {
		want := got + block
		if !drv.Await(func() bool { return got >= want }) {
			t.Fatal("transfer stopped")
		}
	}
	// Warm the pools, the rings and the timer queue's backing array.
	for i := 0; i < 2; i++ {
		readBlock()
	}
	// Measured: 0.00 per block at GOMAXPROCS 1, 2 and 4 (go1.24,
	// linux/amd64); the ceiling is that rounded up, at least 1. Under
	// the race detector, whose pool drops read 0 to 2 over 40 runs, the
	// ceiling stays at the 4 it was before.
	limit := 1.0
	if raceEnabled {
		limit = 4
	}
	if avg := testing.AllocsPerRun(20, readBlock); avg > limit {
		t.Fatalf("steady-state transfer allocates %.1f times per %d KB block, want <= %.0f", avg, block>>10, limit)
	}
}
