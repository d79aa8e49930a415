// Monitor: runtime monitoring through PBPL (§I: "events produced by the
// environment or internal system processes are consumed and processed
// by a runtime monitor").
//
// Instrumented application threads emit events (lock acquire/release);
// a monitor consumer checks a safety property — every acquire is
// eventually released, never recursively — over event batches. Because
// monitors run alongside the application 24/7, their wakeup discipline
// directly shows up in the machine's power budget; PBPL lets the
// monitor ride slot wakeups instead of waking per event.
//
//	go run ./examples/monitor
package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro"
)

type eventKind int

const (
	acquire eventKind = iota
	release
)

type event struct {
	thread int
	kind   eventKind
	lock   string
	seq    uint64
}

func main() {
	rt, err := repro.New(
		repro.WithSlotSize(10*time.Millisecond),
		repro.WithMaxLatency(100*time.Millisecond),
		repro.WithBuffer(512),
	)
	if err != nil {
		panic(err)
	}
	defer rt.Close()

	// The monitor: a per-thread lock-state machine fed in batches.
	held := map[int]map[string]bool{}
	violations := 0
	checked := 0
	monitor, err := repro.Open(rt, repro.Batch(func(batch []event) {
		for _, ev := range batch {
			h := held[ev.thread]
			if h == nil {
				h = map[string]bool{}
				held[ev.thread] = h
			}
			switch ev.kind {
			case acquire:
				if h[ev.lock] {
					violations++ // recursive acquire
				}
				h[ev.lock] = true
			case release:
				if !h[ev.lock] {
					violations++ // release without acquire
				}
				delete(h, ev.lock)
			}
			checked++
		}
	}), repro.ConcurrentProducers())
	if err != nil {
		panic(err)
	}
	defer monitor.Close()

	// The instrumented application: 4 threads doing lock/unlock work at
	// varying rates, one of them buggy.
	var wg sync.WaitGroup
	var seq uint64
	var seqMu sync.Mutex
	var shed atomic.Int64
	emit := func(th int, k eventKind, lock string) {
		seqMu.Lock()
		seq++
		s := seq
		seqMu.Unlock()
		// PutWait sheds only once the monitor has checked nothing for a
		// second; a lost event can fake or hide a violation, so count it.
		if monitor.PutWait(event{thread: th, kind: k, lock: lock, seq: s}, time.Second) != nil {
			shed.Add(1)
		}
	}
	locks := []string{"mu", "cache", "log"}
	injected := 0
	for th := 0; th < 4; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(th)))
			for i := 0; i < 400; i++ {
				l := locks[rng.Intn(len(locks))]
				emit(th, acquire, l)
				if th == 3 && rng.Intn(50) == 0 {
					emit(th, acquire, l) // bug: recursive acquire
					injected++
				}
				emit(th, release, l)
				if rng.Intn(8) == 0 {
					time.Sleep(time.Millisecond)
				}
			}
		}(th)
	}
	wg.Wait()
	time.Sleep(150 * time.Millisecond)
	monitor.Close()

	st := rt.Stats()
	fmt.Printf("events checked:     %d (%d shed)\n", checked, shed.Load())
	fmt.Printf("violations found:   %d (thread 3 injected ≈%d recursive acquires)\n", violations, injected)
	fmt.Printf("monitor wakeups:    %d timer + %d forced\n", st.TimerWakes, st.ForcedWakes)
	if w := st.TimerWakes + st.ForcedWakes; w > 0 {
		fmt.Printf("events per wakeup:  %.1f — a per-event monitor pays %d wakeups\n",
			float64(checked)/float64(w), checked)
	}
}
