package obs

import (
	"sync"
	"testing"
)

func TestTimelineAppendDump(t *testing.T) {
	tl := NewTimeline(16)
	fire := tl.Append(Record{Kind: KindTimerFire, Manager: 0, Slot: 3, Items: 2})
	tl.Append(Record{Kind: KindDrain, Manager: 0, Slot: 3, Pair: 1, Wake: fire, Items: 5})
	tl.Append(Record{Kind: KindDrain, Manager: 0, Slot: 3, Pair: 2, Wake: fire, Items: 7})
	recs := tl.Dump()
	if len(recs) != 3 {
		t.Fatalf("dump len = %d, want 3", len(recs))
	}
	if recs[0].Kind != KindTimerFire {
		t.Fatalf("first record kind = %v, want timer-fire", recs[0].Kind)
	}
	latched := 0
	for _, r := range recs[1:] {
		if r.Kind == KindDrain && r.Wake == fire {
			latched++
		}
	}
	if latched != 2 {
		t.Fatalf("latched drains = %d, want 2", latched)
	}
}

// TestTimelineLossBound: appending far more than capacity keeps exactly
// the most recent Cap records — the documented loss bound.
func TestTimelineLossBound(t *testing.T) {
	tl := NewTimeline(64)
	const total = 1000
	for i := 0; i < total; i++ {
		tl.Append(Record{Kind: KindDrain, Items: i})
	}
	recs := tl.Dump()
	if len(recs) != tl.Cap() {
		t.Fatalf("dump len = %d, want capacity %d", len(recs), tl.Cap())
	}
	// Must be the newest Cap seqs, contiguous and ordered.
	want := uint64(total - tl.Cap() + 1)
	for i, r := range recs {
		if r.Seq != want+uint64(i) {
			t.Fatalf("record %d has seq %d, want %d", i, r.Seq, want+uint64(i))
		}
	}
}

// TestTimelineConcurrent: concurrent appends lose nothing beyond the
// ring bound, and Dump stays consistent while appends race (run under
// -race in make verify).
func TestTimelineConcurrent(t *testing.T) {
	tl := NewTimeline(1024)
	const workers = 8
	const per = 400 // workers*per > cap, so overwrite paths run too
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tl.Append(Record{Kind: KindDrain, Manager: id, Items: i})
				if i%64 == 0 {
					tl.Dump()
				}
			}
		}(w)
	}
	wg.Wait()
	if got := tl.Appended(); got != workers*per {
		t.Fatalf("appended = %d, want %d", got, workers*per)
	}
	recs := tl.Dump()
	if len(recs) != tl.Cap() {
		t.Fatalf("dump len = %d, want %d", len(recs), tl.Cap())
	}
	seen := make(map[uint64]bool, len(recs))
	for i, r := range recs {
		if seen[r.Seq] {
			t.Fatalf("duplicate seq %d", r.Seq)
		}
		seen[r.Seq] = true
		if i > 0 && recs[i-1].Seq >= r.Seq {
			t.Fatalf("dump not ordered at %d", i)
		}
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindTimerFire:  "timer-fire",
		KindForcedWake: "forced-wake",
		KindDrain:      "drain",
		KindMigrate:    "migrate",
		KindQuarantine: "quarantine",
		KindRecover:    "recover",
		KindDrop:       "drop",
		KindOverrun:    "overrun",
		Kind(0):        "unknown",
		Kind(99):       "unknown",
	} {
		if got := k.String(); got != want {
			t.Fatalf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}
