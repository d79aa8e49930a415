package repro

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPairSnapshotsChurn hammers PairSnapshots (and the other observer
// surfaces the daemon scrapes) while pairs concurrently open, produce,
// migrate, and close. The snapshot path reads pair state outside
// pairMu, so this is the regression net for that design: under -race it
// proves every read is properly synchronized, and the assertions prove
// a snapshot is internally consistent even mid-churn.
func TestPairSnapshotsChurn(t *testing.T) {
	rt, err := New(
		WithSlotSize(time.Millisecond),
		WithMaxLatency(10*time.Millisecond),
		WithBuffer(32),
		WithManagers(4),
		WithMaxPairs(64),
		WithConsolidation(ConsolidationConfig{Interval: 2 * time.Millisecond}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	var stop atomic.Bool
	var wg sync.WaitGroup

	// Churners: each repeatedly opens a pair, pushes a burst, closes.
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				p, err := Open(rt, Batch(func([]int) {}))
				if err != nil {
					if err == ErrClosed {
						return
					}
					// Pair table momentarily full — that's churn working.
					time.Sleep(50 * time.Microsecond)
					continue
				}
				for v := 0; v < 20; v++ {
					_ = p.Put(v)
				}
				if err := p.Close(); err != nil {
					t.Errorf("close: %v", err)
					return
				}
			}
		}()
	}

	// Scrapers: the daemon's /metrics + /statusz read path.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				snaps := rt.PairSnapshots()
				for i, s := range snaps {
					if i > 0 && snaps[i-1].ID >= s.ID {
						t.Errorf("snapshots unordered: %d before %d", snaps[i-1].ID, s.ID)
						return
					}
					if s.Manager < 0 || s.Manager >= 4 {
						t.Errorf("pair %d: manager %d out of range", s.ID, s.Manager)
						return
					}
					if s.ItemsOut > s.ItemsIn {
						t.Errorf("pair %d: out %d > in %d", s.ID, s.ItemsOut, s.ItemsIn)
						return
					}
				}
				total := 0
				for _, m := range rt.ManagerSnapshots() {
					total += m.Pairs
				}
				if total < 0 || total > 64 {
					t.Errorf("manager pair total %d out of range", total)
					return
				}
				_ = rt.Placement()
				if st := rt.Stats(); st.ItemsOut > st.ItemsIn {
					t.Errorf("stats: out %d > in %d", st.ItemsOut, st.ItemsIn)
					return
				}
			}
		}()
	}

	time.Sleep(300 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	// Every pair that ever opened is now retired or drained by Close:
	// the runtime-wide ledger holds exactly, and the wake totals are the
	// managers' sums.
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	st := rt.Stats()
	if st.ItemsIn != st.ItemsOut+st.ItemsDropped+st.HandedOff {
		t.Errorf("ledger: in %d != out %d + dropped %d + handed off %d",
			st.ItemsIn, st.ItemsOut, st.ItemsDropped, st.HandedOff)
	}
	var timer, forced uint64
	for _, m := range rt.ManagerSnapshots() {
		timer += m.TimerWakes
		forced += m.ForcedWakes
	}
	if st.TimerWakes != timer || st.ForcedWakes != forced {
		t.Errorf("wakes: stats %d timer / %d forced, managers sum to %d / %d",
			st.TimerWakes, st.ForcedWakes, timer, forced)
	}
}

// TestRequestQuotaInvariantUnderResize drives the elastic buffer pool
// from four manager goroutines at once — pairs with very different
// rates force constant up/down renegotiation — while an auditor samples
// the pool under poolMu. The paper's Fig. 8 invariant (Σ Bᵢ ≤ Bg, every
// Bᵢ ≥ the floor) must hold at every observation, not just at rest.
func TestRequestQuotaInvariantUnderResize(t *testing.T) {
	rt, err := New(
		WithSlotSize(time.Millisecond),
		WithMaxLatency(8*time.Millisecond),
		WithBuffer(16),
		WithManagers(4),
		WithMaxPairs(16),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	const pairsN = 8
	pairs := make([]*Pair[int], pairsN)
	for i := range pairs {
		if pairs[i], err = Open(rt, Batch(func([]int) {})); err != nil {
			t.Fatal(err)
		}
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for i, p := range pairs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Rates spread two orders of magnitude so predictions — and
			// therefore quota requests — keep diverging and crossing.
			gap := time.Duration(1+i*25) * 10 * time.Microsecond
			for v := 0; !stop.Load(); v++ {
				_ = p.Put(v)
				time.Sleep(gap)
			}
		}()
	}

	observations := 0
	deadline := time.Now().Add(400 * time.Millisecond)
	for time.Now().Before(deadline) {
		rt.poolMu.Lock()
		err := rt.pool.CheckInvariant()
		rt.poolMu.Unlock()
		if err != nil {
			stop.Store(true)
			wg.Wait()
			t.Fatalf("observation %d: %v", observations, err)
		}
		observations++
		time.Sleep(200 * time.Microsecond)
	}
	stop.Store(true)
	wg.Wait()
	if observations < 100 {
		t.Fatalf("only %d pool observations, want ≥ 100", observations)
	}
	rt.poolMu.Lock()
	err = rt.pool.CheckInvariant()
	rt.poolMu.Unlock()
	if err != nil {
		t.Fatalf("final: %v", err)
	}
}
