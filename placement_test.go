package repro

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestMigrationConservationAndFIFO hammers one pair with a sequential
// producer while migrating it between managers, and verifies every
// accepted item arrives exactly once, in order. Run with -race: the
// ownership hand-over is the point of the test.
func TestMigrationConservationAndFIFO(t *testing.T) {
	var migrateEvents atomic.Uint64
	rt, err := New(
		WithManagers(4),
		WithSlotSize(2*time.Millisecond),
		WithMaxLatency(20*time.Millisecond),
		WithBuffer(256),
		WithObserver(func(e Event) {
			if e.Kind == EventMigrate {
				if e.Manager < 0 || e.Manager >= 4 {
					panic("migrate event with manager out of range")
				}
				migrateEvents.Add(1)
			}
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	var mu sync.Mutex
	var got []int
	p, err := Open(rt, Batch(func(batch []int) {
		mu.Lock()
		got = append(got, batch...)
		mu.Unlock()
	}))

	if err != nil {
		t.Fatal(err)
	}

	const items = 5000
	var moved atomic.Uint64
	producerDone := make(chan struct{})
	go func() {
		defer close(producerDone)
		for i := 0; i < items; i++ {
			// A producer that never sleeps can outrun the migrator, so
			// it lets at least one hand-over land every quarter stream.
			if i%(items/4) == 0 {
				deadline := time.Now().Add(5 * time.Second)
				for n := moved.Load(); moved.Load() == n; time.Sleep(100 * time.Microsecond) {
					if time.Now().After(deadline) {
						t.Errorf("no migration landed before item %d", i)
						return
					}
				}
			}
			if err := p.PutWait(i, time.Second); err != nil {
				t.Errorf("put %d: %v", i, err)
				return
			}
		}
	}()

	// Migrate the pair round-robin while the producer runs.
	var migrations uint64
	for i := 0; ; i++ {
		select {
		case <-producerDone:
		default:
			if rt.migrate(p.st, rt.managers[i%len(rt.managers)]) {
				migrations++
				moved.Add(1)
			}
			time.Sleep(500 * time.Microsecond)
			continue
		}
		break
	}

	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != items {
		t.Fatalf("delivered %d items, want %d (conservation)", len(got), items)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("item %d = %d, want %d (FIFO order broken)", i, v, i)
		}
	}
	if migrations == 0 {
		t.Fatal("no migration ever succeeded; test exercised nothing")
	}
	if s := rt.Stats(); s.Migrations != migrations {
		t.Fatalf("Stats.Migrations = %d, want %d", s.Migrations, migrations)
	}
	if e := migrateEvents.Load(); e != migrations {
		t.Fatalf("observer saw %d migrate events, want %d", e, migrations)
	}
}

// TestConsolidationParksManagers opens idle pairs spread round-robin
// over four managers and waits for the placement controller to pack
// them onto one, leaving the other three with nothing to wake for.
func TestConsolidationParksManagers(t *testing.T) {
	rt, err := New(
		WithManagers(4),
		WithConsolidation(ConsolidationConfig{Interval: 10 * time.Millisecond}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	const pairsN = 8
	for i := 0; i < pairsN; i++ {
		if _, err := Open(rt, Batch(func([]int) {})); err != nil {
			t.Fatal(err)
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		snaps := rt.ManagerSnapshots()
		hosting, total := 0, 0
		for _, m := range snaps {
			if m.Pairs > 0 {
				hosting++
			}
			total += m.Pairs
		}
		if hosting == 1 && total == pairsN {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("never consolidated: %+v", snaps)
		}
		time.Sleep(5 * time.Millisecond)
	}

	ps := rt.Placement()
	if !ps.Enabled {
		t.Fatal("Placement().Enabled = false with WithConsolidation")
	}
	if ps.Plans == 0 || ps.Migrations == 0 {
		t.Fatalf("plans = %d, migrations = %d, want both > 0", ps.Plans, ps.Migrations)
	}
	if ps.LastPlan.Active != 1 {
		t.Fatalf("last plan active = %d, want 1", ps.LastPlan.Active)
	}
	target := -1
	for _, s := range rt.PairSnapshots() {
		if target < 0 {
			target = s.Manager
		}
		if s.Manager != target {
			t.Fatalf("pair %d on manager %d, others on %d", s.ID, s.Manager, target)
		}
	}
}

// TestConsolidationUnderTraffic runs low-rate producers on many pairs
// with consolidation on and verifies no items are lost and latency
// stays bounded (every item is delivered by Close at the latest).
func TestConsolidationUnderTraffic(t *testing.T) {
	rt, err := New(
		WithManagers(4),
		WithSlotSize(2*time.Millisecond),
		WithMaxLatency(20*time.Millisecond),
		WithConsolidation(ConsolidationConfig{Interval: 15 * time.Millisecond}),
	)
	if err != nil {
		t.Fatal(err)
	}

	const pairsN = 10
	const perPair = 200
	var delivered atomic.Uint64
	pairs := make([]*Pair[int], pairsN)
	for i := range pairs {
		pairs[i], err = Open(rt, Batch(func(batch []int) {
			delivered.Add(uint64(len(batch)))
		}))

		if err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	for _, p := range pairs {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perPair; i++ {
				if err := p.PutWait(i, time.Second); err != nil {
					t.Errorf("put: %v", err)
					return
				}
				time.Sleep(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if got := delivered.Load(); got != pairsN*perPair {
		t.Fatalf("delivered %d items, want %d", got, pairsN*perPair)
	}
	st := rt.Stats()
	if st.ItemsOut != st.ItemsIn {
		t.Fatalf("ItemsOut %d != ItemsIn %d after Close", st.ItemsOut, st.ItemsIn)
	}
}
