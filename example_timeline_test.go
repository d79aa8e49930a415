package repro_test

import (
	"fmt"
	"time"

	"repro"
)

// TimelineDump reads the runtime's one event record: slot-timer fires
// and forced wakes, then every drain, drop, handler overrun, migration
// and breaker transition they led to — the live analogue of the
// simulator's invocation traces. Here the drain records account for
// every item the handler received.
func ExampleRuntime_TimelineDump() {
	rt, err := repro.New(
		repro.WithSlotSize(5*time.Millisecond),
		repro.WithMaxLatency(25*time.Millisecond),
		repro.WithTimeline(repro.TimelineDefaultCap),
	)
	if err != nil {
		panic(err)
	}
	pair, err := repro.Open(rt, repro.Batch(func(batch []int) {}))
	if err != nil {
		panic(err)
	}
	for i := 0; i < 10; i++ {
		pair.PutWait(i, time.Second)
	}
	pair.Close()
	rt.Close()
	drained := 0
	for _, r := range rt.TimelineDump() {
		if r.Kind == "drain" {
			drained += r.Items
		}
	}
	fmt.Println(drained)
	// Output: 10
}
