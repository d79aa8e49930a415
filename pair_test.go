package repro

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestPairMaxLatencyValidates(t *testing.T) {
	rt, err := New(WithSlotSize(10 * time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if _, err := Open(rt, Batch(func([]int) {}), MaxLatency(time.Millisecond)); err == nil {
		t.Fatal("per-pair latency below slot size should fail")
	}
	// And the failed Open must not leak a pool slot.
	rt2, err := New(WithMaxPairs(1), WithSlotSize(10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer rt2.Close()
	if _, err := Open(rt2, Batch(func([]int) {}), MaxLatency(time.Millisecond)); err == nil {
		t.Fatal("should fail")
	}
	if _, err := Open(rt2, Batch(func([]int) {})); err != nil {
		t.Fatalf("slot leaked by failed Open: %v", err)
	}
}

func TestPairMixedLatencyClasses(t *testing.T) {
	rt, err := New(WithSlotSize(10*time.Millisecond), WithMaxLatency(500*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	type rec struct {
		mu    sync.Mutex
		worst time.Duration
		n     int
	}
	newPair := func(maxLat time.Duration) (*Pair[time.Time], *rec) {
		r := &rec{}
		p, err := Open(rt, Batch(func(batch []time.Time) {
			r.mu.Lock()
			for _, at := range batch {
				if lag := time.Since(at); lag > r.worst {
					r.worst = lag
				}
				r.n++
			}
			r.mu.Unlock()
		}),

			MaxLatency(maxLat))

		if err != nil {
			t.Fatal(err)
		}
		return p, r
	}
	tight, tightRec := newPair(30 * time.Millisecond)
	relaxed, relaxedRec := newPair(500 * time.Millisecond)

	for i := 0; i < 60; i++ {
		now := time.Now()
		if err := tight.Put(now); err != nil {
			t.Fatal(err)
		}
		if err := relaxed.Put(now); err != nil {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	ok := waitFor(t, 5*time.Second, func() bool {
		tightRec.mu.Lock()
		relaxedRec.mu.Lock()
		done := tightRec.n == 60 && relaxedRec.n == 60
		relaxedRec.mu.Unlock()
		tightRec.mu.Unlock()
		return done
	})
	if !ok {
		t.Fatalf("delivery incomplete: tight %d, relaxed %d", tightRec.n, relaxedRec.n)
	}
	// The tight pair's worst lag must respect its bound with generous
	// scheduler slack (loaded single-core CI box).
	tightRec.mu.Lock()
	worst := tightRec.worst
	tightRec.mu.Unlock()
	if worst > 10*30*time.Millisecond {
		t.Fatalf("tight pair worst lag %v far exceeds its 30ms bound", worst)
	}
}

// Invalid option arguments are construction errors, never clamped.
func TestPairOptionValidationErrors(t *testing.T) {
	rt, err := New()
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	cases := []struct {
		name string
		opt  PairOption
		want string
	}{
		{"MaxLatencyZero", MaxLatency(0), "MaxLatency"},
		{"MaxLatencyNegative", MaxLatency(-time.Second), "MaxLatency"},
		{"HandlerTimeoutNegative", HandlerTimeout(-time.Second), "HandlerTimeout"},
		{"BreakerNegative", Breaker(-1), "Breaker"},
		{"RedeliveryNegative", Redelivery(-1), "Redelivery"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Open(rt, Batch(func([]int) {}), tc.opt)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Open with %s = %v, want error naming %s", tc.name, err, tc.want)
			}
		})
	}

	// Several invalid options are reported together, not first-only.
	_, err = Open(rt, Batch(func([]int) {}), Breaker(-1), Redelivery(-1))
	if err == nil || !strings.Contains(err.Error(), "Breaker") || !strings.Contains(err.Error(), "Redelivery") {
		t.Fatalf("joined validation error = %v", err)
	}
}
