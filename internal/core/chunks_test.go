package core

import (
	"bytes"
	"io"
	"sync"
	"sync/atomic"
	"testing"
)

// testCM is a chunk manager whose notify hook counts its calls, so a
// test can assert that the event which unblocks a parked path also
// re-polls it.
type testCM struct {
	*chunkManager
	nmu      sync.Mutex
	ncond    *sync.Cond
	notified int
}

func newTestCM(maxOOO int, sink io.Writer) *testCM {
	tc := &testCM{}
	tc.ncond = sync.NewCond(&tc.nmu)
	tc.chunkManager = newChunkManager(maxOOO, sink, func() {
		tc.nmu.Lock()
		tc.notified++
		tc.ncond.Broadcast()
		tc.nmu.Unlock()
	})
	return tc
}

func (tc *testCM) notifies() int {
	tc.nmu.Lock()
	defer tc.nmu.Unlock()
	return tc.notified
}

// acquire is acquireTry for cases where a span must be available now.
func (tc *testCM) acquire(t *testing.T, want int64) Span {
	t.Helper()
	s, ok, over := tc.acquireTry(want)
	if !ok || over {
		t.Fatalf("acquireTry(%d) = %+v, ok=%v over=%v; want a span", want, s, ok, over)
	}
	return s
}

// mustWait asserts acquireTry tells the caller to stay parked.
func (tc *testCM) mustWait(t *testing.T, want int64, why string) {
	t.Helper()
	if s, ok, over := tc.acquireTry(want); ok || over {
		t.Fatalf("acquireTry = %+v, ok=%v over=%v %s; want wait", s, ok, over, why)
	}
}

// complete delivers s as a single view filled with b.
func (tc *testCM) complete(path int, s Span, b byte) {
	tc.completeViews(path, s, [][]byte{bytes.Repeat([]byte{b}, int(s.Size))}, func() {}, s.Size)
}

func TestChunkManagerInOrderDelivery(t *testing.T) {
	var sink bytes.Buffer
	cm := newTestCM(1, &sink)
	cm.setGate(true)
	cm.setTotal(100)

	s1 := cm.acquire(t, 40)
	if s1.Off != 0 || s1.Size != 40 {
		t.Fatalf("span1 = %+v", s1)
	}
	s2 := cm.acquire(t, 40)
	if s2.Off != 40 || s2.Size != 40 {
		t.Fatalf("span2 = %+v", s2)
	}
	// Last span clamps to total.
	s3 := cm.acquire(t, 40)
	if s3.Off != 80 || s3.Size != 20 {
		t.Fatalf("span3 = %+v", s3)
	}

	// Complete out of order: 2nd chunk first.
	cm.complete(1, s2, 'b')
	if cm.Frontier() != 0 {
		t.Fatalf("frontier moved on out-of-order chunk: %d", cm.Frontier())
	}
	if cm.outstanding() != 1 {
		t.Fatalf("outstanding = %d, want 1", cm.outstanding())
	}
	cm.complete(0, s1, 'a')
	if cm.Frontier() != 80 {
		t.Fatalf("frontier = %d, want 80", cm.Frontier())
	}
	cm.complete(0, s3, 'c')
	if !cm.Done() {
		t.Fatal("not done after all chunks")
	}
	want := append(bytes.Repeat([]byte{'a'}, 40), append(bytes.Repeat([]byte{'b'}, 40), bytes.Repeat([]byte{'c'}, 20)...)...)
	if !bytes.Equal(sink.Bytes(), want) {
		t.Fatalf("sink = %q", sink.Bytes())
	}

	// After completion, acquireTry reports over.
	if _, ok, over := cm.acquireTry(10); ok || !over {
		t.Fatalf("acquireTry after done: ok=%v over=%v, want over", ok, over)
	}
}

func TestChunkManagerOutOfOrderLimitBlocks(t *testing.T) {
	cm := newTestCM(1, nil)
	cm.setGate(true)
	cm.setTotal(1000)

	a := cm.acquire(t, 100) // [0,100) path 0 (will be the gap)
	b := cm.acquire(t, 100) // [100,200) path 1
	cm.complete(1, b, 0)

	// Path 1 asking for fresh work must wait: one OOO chunk stored.
	cm.mustWait(t, 100, "despite full OOO store")
	// Gap fills: frontier advances, the parked path is re-polled and the
	// re-poll hands out the next span.
	before := cm.notifies()
	cm.complete(0, a, 0)
	if cm.notifies() == before {
		t.Fatal("filling the gap did not notify the parked path")
	}
	if s := cm.acquire(t, 100); s.Off != 200 {
		t.Fatalf("unblocked span = %+v, want off 200", s)
	}
}

func TestChunkManagerRetryPriority(t *testing.T) {
	cm := newTestCM(1, nil)
	cm.setGate(true)
	cm.setTotal(1000)
	s := cm.acquire(t, 100)
	cm.fail(s)
	// The retried span is handed out before fresh work, to any path.
	if r := cm.acquire(t, 500); r != s {
		t.Fatalf("retry span = %+v, want %+v", r, s)
	}
}

func TestChunkManagerRetryBypassesGateAndLimit(t *testing.T) {
	cm := newTestCM(1, nil)
	cm.setGate(true)
	cm.setTotal(300)
	a := cm.acquire(t, 100)
	b := cm.acquire(t, 100)
	cm.complete(1, b, 0) // OOO store full
	cm.setGate(false)    // and gate closed
	cm.fail(a)
	if r := cm.acquire(t, 100); r != a {
		t.Fatalf("retry under closed gate = %+v, want %+v", r, a)
	}
}

func TestChunkManagerGateBlocksFreshWork(t *testing.T) {
	cm := newTestCM(1, nil)
	cm.setTotal(1000) // gate starts closed
	cm.mustWait(t, 100, "with closed gate")
	before := cm.notifies()
	cm.setGate(true)
	if cm.notifies() == before {
		t.Fatal("opening the gate did not notify the parked path")
	}
	cm.acquire(t, 100)
}

func TestChunkManagerStopUnblocks(t *testing.T) {
	cm := newTestCM(1, nil)
	cm.setGate(true) // no total yet: acquire must wait
	cm.mustWait(t, 100, "before the content length is known")
	before := cm.notifies()
	cm.stop()
	if cm.notifies() == before {
		t.Fatal("stop did not notify the parked path")
	}
	if _, ok, over := cm.acquireTry(100); ok || !over {
		t.Fatalf("acquireTry after stop: ok=%v over=%v, want over", ok, over)
	}
}

func TestChunkManagerOnDeliverFrontier(t *testing.T) {
	var mu sync.Mutex
	var frontiers []int64
	cm := newTestCM(2, nil)
	cm.onDeliver = func(f int64) {
		mu.Lock()
		frontiers = append(frontiers, f)
		mu.Unlock()
	}
	cm.setGate(true)
	cm.setTotal(300)
	a := cm.acquire(t, 100)
	b := cm.acquire(t, 100)
	c := cm.acquire(t, 100)
	cm.complete(1, b, 0) // stored, no callback
	cm.complete(0, c, 0) // stored, no callback
	cm.complete(0, a, 0) // releases everything
	mu.Lock()
	defer mu.Unlock()
	if len(frontiers) != 1 || frontiers[0] != 300 {
		t.Fatalf("frontiers = %v, want [300]", frontiers)
	}
}

func TestChunkManagerConcurrentPathsDeliverAllBytes(t *testing.T) {
	var sink bytes.Buffer
	cm := newTestCM(1, &sink)
	cm.setGate(true)
	total := int64(1 << 20)
	cm.setTotal(total)
	var completed, released atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for {
				seen := cm.notifies()
				s, ok, over := cm.acquireTry(64 << 10)
				if over {
					return
				}
				if !ok {
					// Parked: wait for the next notify, as a path machine
					// waits for the next session step.
					cm.nmu.Lock()
					for cm.notified == seen {
						cm.ncond.Wait()
					}
					cm.nmu.Unlock()
					continue
				}
				data := make([]byte, s.Size)
				for i := range data {
					data[i] = byte((s.Off + int64(i)) % 251)
				}
				completed.Add(1)
				cm.completeViews(p, s, [][]byte{data[:len(data)/2], data[len(data)/2:]},
					func() { released.Add(1) }, s.Size)
			}
		}(p)
	}
	wg.Wait()
	if !cm.Done() {
		t.Fatal("not done")
	}
	if c, r := completed.Load(), released.Load(); c != r {
		t.Fatalf("%d chunks completed but %d view sets released", c, r)
	}
	got := sink.Bytes()
	if int64(len(got)) != total {
		t.Fatalf("sink length = %d, want %d", len(got), total)
	}
	for i, b := range got {
		if b != byte(i%251) {
			t.Fatalf("byte %d out of order", i)
		}
	}
}
