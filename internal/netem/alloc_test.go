package netem

import (
	"testing"
	"time"
)

// TestIdleConnReleasesDeliveredMemory pins the ring-buffer fix for the
// old `queue = queue[1:]` re-slicing: delivered segments must release
// their payload buffers immediately, so a long-lived connection that
// has gone idle pins no payload memory no matter how much traffic has
// passed through it.
func TestIdleConnReleasesDeliveredMemory(t *testing.T) {
	clock := NewVirtualClock()
	defer clock.Stop()
	p := LinkParams{Rate: Mbps(50), Delay: 2 * time.Millisecond}
	client, server := Pipe(clock, p, p, "c", "s")

	const total = 4 << 20
	var got int
	goAll(clock, func(p *Participant) {
		server.Bind(p)
		buf := make([]byte, 64<<10)
		for sent := 0; sent < total; sent += len(buf) {
			if _, err := server.Write(buf); err != nil {
				t.Errorf("write: %v", err)
				return
			}
		}
	}, func(p *Participant) {
		client.Bind(p)
		buf := make([]byte, 64<<10)
		for got < total {
			n, err := client.Read(buf)
			if err != nil {
				t.Errorf("read after %d bytes: %v", got, err)
				return
			}
			got += n
		}
	})()
	if t.Failed() {
		return
	}

	// The conn is now idle with every segment delivered. The down
	// direction's queue must reference zero payload bytes: popped ring
	// slots are zeroed and their buffers returned to the pool.
	if pinned := client.in.queueCapBytes(); pinned != 0 {
		t.Fatalf("idle conn pins %d payload bytes after delivering %d", pinned, total)
	}
	if queued := client.in.queuedBytes(); queued != 0 {
		t.Fatalf("idle conn reports %d queued bytes", queued)
	}
}

// TestSteadyStateTransferAllocs guards the zero-copy data plane: the
// steady-state read/write path of a netem conn — pooled segment
// buffers, reusable ring slots, participant-handle parks — must not
// allocate per transferred block. The old per-segment allocations cost
// ~25 allocations per 256 KB; the pooled path is bounded well under
// one allocation per op on average.
func TestSteadyStateTransferAllocs(t *testing.T) {
	clock := NewVirtualClock()
	defer clock.Stop()
	p := LinkParams{Rate: Mbps(100), Delay: time.Millisecond, SendBuf: 1 << 20}
	client, server := Pipe(clock, p, p, "c", "s")

	const block = 256 << 10
	clock.Go(func(wp *Participant) {
		server.Bind(wp)
		buf := make([]byte, block)
		for {
			if _, err := server.Write(buf); err != nil {
				return
			}
		}
	})

	// The reading side runs registered too, so parks reuse the
	// participant's wake channel instead of allocating transient state.
	result := make(chan float64, 1)
	clock.Go(func(rp *Participant) {
		client.Bind(rp)
		buf := make([]byte, 64<<10)
		readBlock := func() {
			for got := 0; got < block; {
				n, err := client.Read(buf)
				if err != nil {
					t.Errorf("read: %v", err)
					return
				}
				got += n
			}
		}
		readBlock() // warm pools and ring capacity
		result <- testing.AllocsPerRun(20, readBlock)
	})
	select {
	case avg := <-result:
		if avg > 4 {
			t.Fatalf("steady-state transfer allocates %.1f times per %d KB block, want <= 4", avg, block>>10)
		}
	case <-time.After(30 * time.Second): //detlint:allow wallclock -- test watchdog against emulator deadlock runs on wall time
		t.Fatal("transfer did not reach steady state")
	}
	client.Close()
	server.Close()
}
