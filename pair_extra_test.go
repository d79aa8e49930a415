package repro

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func TestPutWaitBlocksThroughOverflow(t *testing.T) {
	rt, err := New(
		WithSlotSize(10*time.Millisecond),
		WithMaxLatency(100*time.Millisecond),
		WithBuffer(4), WithMinQuota(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	var mu sync.Mutex
	got := 0
	pair, err := Open(rt, Batch(func(batch []int) {
		mu.Lock()
		got += len(batch)
		mu.Unlock()
	}))

	if err != nil {
		t.Fatal(err)
	}
	defer pair.Close()
	const n = 200
	for i := 0; i < n; i++ {
		if err := pair.PutWait(i, 5*time.Second); err != nil {
			t.Fatalf("PutWait(%d): %v", i, err)
		}
	}
	if !waitFor(t, 5*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return got == n
	}) {
		t.Fatalf("delivered %d of %d", got, n)
	}
}

func TestPutWaitZeroTimeoutIsSingleAttempt(t *testing.T) {
	rt, err := New(WithSlotSize(50*time.Millisecond), WithMaxLatency(500*time.Millisecond), WithBuffer(2), WithMinQuota(2))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	pair, err := Open(rt, Batch(func([]int) {}))
	if err != nil {
		t.Fatal(err)
	}
	defer pair.Close()
	pair.Put(1)
	pair.Put(2)
	if err := pair.PutWait(3, 0); !errors.Is(err, ErrOverflow) {
		t.Fatalf("zero-timeout PutWait = %v, want ErrOverflow", err)
	}
}

func TestPutWaitAfterClose(t *testing.T) {
	rt, err := New()
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	pair, err := Open(rt, Batch(func([]int) {}))
	if err != nil {
		t.Fatal(err)
	}
	pair.Close()
	if err := pair.PutWait(1, time.Second); !errors.Is(err, ErrClosed) {
		t.Fatalf("PutWait after close = %v", err)
	}
}

// gatedPair opens a pair whose consumer blocks in its first (forced)
// invocation until the returned gate is closed, then fills its buffer:
// the next Put overflows, and the drain that overflow forces queues
// behind the gate. Slots are a second long, so no timer drain comes
// between.
func gatedPair(t *testing.T, opts ...PairOption) (*Pair[int], chan struct{}) {
	t.Helper()
	rt, err := New(WithSlotSize(time.Second), WithMaxLatency(10*time.Second), WithBuffer(2), WithoutResizing())
	if err != nil {
		t.Fatal(err)
	}
	entered, gate := make(chan struct{}), make(chan struct{})
	var once sync.Once
	pair, err := Open(rt, Batch(func([]int) {
		once.Do(func() { close(entered); <-gate })
	}), opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		select {
		case <-gate:
		default:
			close(gate)
		}
		rt.Close()
	})
	pair.Put(0)
	pair.Flush()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("handler never entered")
	}
	for pair.Put(1) == nil {
	}
	return pair, gate
}

// TestAwaitDrainWakesEveryConcurrentProducer: one drain releases every
// producer waiting on the pair, well inside their stall bound.
func TestAwaitDrainWakesEveryConcurrentProducer(t *testing.T) {
	pair, gate := gatedPair(t, ConcurrentProducers())
	const n = 6
	woke := make(chan bool, n)
	for i := 0; i < n; i++ {
		go func() { woke <- pair.AwaitDrain(time.Minute, nil) }()
	}
	deadline := time.Now().Add(5 * time.Second)
	for pair.st.waiters.Load() < n {
		if time.Now().After(deadline) {
			t.Fatal("producers never parked")
		}
		time.Sleep(100 * time.Microsecond)
	}
	close(gate)
	timeout := time.After(500 * time.Millisecond) // the next slot is a second away
	for i := 0; i < n; i++ {
		select {
		case retry := <-woke:
			if !retry {
				t.Fatal("a drained pair told its producer to shed")
			}
		case <-timeout:
			t.Fatalf("%d of %d producers still waiting after the drain", n-i, n)
		}
	}
}

// TestAwaitDrainOverflowOutcomes: a wedged consumer runs the stall bound
// out, stop cuts the wait short, and a close ends it with a retry that
// reports ErrClosed.
func TestAwaitDrainOverflowOutcomes(t *testing.T) {
	pair, gate := gatedPair(t)
	if err := pair.Put(2); !errors.Is(err, ErrOverflow) {
		t.Fatalf("Put on a full pair = %v", err)
	}
	t0 := time.Now()
	if pair.AwaitDrain(20*time.Millisecond, nil) {
		t.Fatal("a wedged consumer's stall bound ended in a retry")
	}
	if waited := time.Since(t0); waited < 20*time.Millisecond {
		t.Fatalf("gave up after %v, inside the stall bound", waited)
	}
	stop := make(chan struct{})
	close(stop)
	if pair.AwaitDrain(time.Minute, stop) {
		t.Fatal("a fired stop ended in a retry")
	}
	woke := make(chan bool, 1)
	go func() { woke <- pair.AwaitDrain(time.Minute, nil) }()
	for pair.st.waiters.Load() == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	closed := make(chan struct{})
	go func() { pair.Close(); close(closed) }()
	select {
	case retry := <-woke:
		if !retry {
			t.Fatal("a close ended the wait without a retry")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the wait outlived the close")
	}
	if err := pair.Put(3); !errors.Is(err, ErrClosed) {
		t.Fatalf("retry after close = %v, want ErrClosed", err)
	}
	close(gate) // Close waits on the wedged manager
	<-closed
}

func TestFlushDrainsEarly(t *testing.T) {
	// A very long slot: without Flush the item would sit for seconds.
	rt, err := New(WithSlotSize(2*time.Second), WithMaxLatency(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	done := make(chan int, 1)
	pair, err := Open(rt, Batch(func(batch []string) {
		select {
		case done <- len(batch):
		default:
		}
	}))

	if err != nil {
		t.Fatal(err)
	}
	defer pair.Close()
	if err := pair.Put("x"); err != nil {
		t.Fatal(err)
	}
	if err := pair.Flush(); err != nil {
		t.Fatal(err)
	}
	select {
	case n := <-done:
		if n != 1 {
			t.Fatalf("flushed %d items", n)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("Flush did not drain (slot is 2s away)")
	}
	if rt.Stats().ForcedWakes == 0 {
		t.Error("Flush should count as a forced wake")
	}
}

func TestFlushOnClosed(t *testing.T) {
	rt, err := New()
	if err != nil {
		t.Fatal(err)
	}
	pair, err := Open(rt, Batch(func([]int) {}))
	if err != nil {
		t.Fatal(err)
	}
	pair.Close()
	if err := pair.Flush(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Flush on closed pair = %v", err)
	}
	rt.Close()
}
