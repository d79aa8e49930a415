// Quickstart: the smallest useful PBPL setup — one producer-consumer
// pair, batched consumption, and the wakeup statistics that motivate
// the whole design.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"time"

	"repro"
)

func main() {
	// A runtime with 10ms slots: consumers wake on slot boundaries,
	// never more than 100ms after an item was produced.
	rt, err := repro.New(
		repro.WithSlotSize(10*time.Millisecond),
		repro.WithMaxLatency(100*time.Millisecond),
		repro.WithBuffer(64),
	)
	if err != nil {
		panic(err)
	}
	defer rt.Close()

	// The consumer receives items in batches. One timer wakeup can
	// serve many buffered items (and, with more pairs, many consumers).
	batches := 0
	items := 0
	pair, err := repro.Open(rt, repro.Batch(func(batch []string) {
		batches++
		items += len(batch)
		fmt.Printf("batch %2d: %3d items (first %q)\n", batches, len(batch), batch[0])
	}))
	if err != nil {
		panic(err)
	}
	defer pair.Close()

	// Produce 500 items over ~0.5s from this goroutine. A full buffer
	// has already forced a drain, and PutWait waits for it; it sheds the
	// item (ErrOverflow) only once the consumer has completed nothing for
	// a whole second, and at once on a closed or quarantined pair. (Put
	// never blocks: it returns ErrOverflow straight away.)
	shed := 0
	for i := 0; i < 500; i++ {
		if pair.PutWait(fmt.Sprintf("event-%03d", i), time.Second) != nil {
			shed++
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(150 * time.Millisecond) // let the last slot fire

	st := rt.Stats()
	fmt.Printf("\nconsumed %d items in %d batches, %d shed\n", items, batches, shed)
	fmt.Printf("timer wakeups: %d, forced (overflow) wakeups: %d\n", st.TimerWakes, st.ForcedWakes)
	fmt.Printf("≈ %.1f items per wakeup — a channel-per-item design would have paid %d wakeups\n",
		float64(st.ItemsOut)/float64(st.TimerWakes+st.ForcedWakes), st.ItemsOut)
}
