package track

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// refCalendar is the map-of-slices calendar both core managers carried
// before Calendar, scans and all, kept as the reference the model test
// compares against.
type refCalendar map[int64][]int

func (r refCalendar) has(slot int64) bool { return len(r[slot]) > 0 }

func (r refCalendar) prevReserved(before, after int64) (int64, bool) {
	best, found := int64(0), false
	for slot, ps := range r {
		if len(ps) == 0 {
			continue
		}
		if slot > after && slot < before && (!found || slot > best) {
			best, found = slot, true
		}
	}
	return best, found
}

func (r refCalendar) earliest() (int64, bool) {
	best, found := int64(0), false
	for slot, ps := range r {
		if len(ps) > 0 && (!found || slot < best) {
			best, found = slot, true
		}
	}
	return best, found
}

func (r refCalendar) add(slot int64, p int) { r[slot] = append(r[slot], p) }

func (r refCalendar) remove(slot int64, p int) {
	list := r[slot]
	if i := slices.Index(list, p); i >= 0 {
		list = slices.Delete(list, i, i+1)
	}
	if len(list) == 0 {
		delete(r, slot)
	} else {
		r[slot] = list
	}
}

// popThrough is the live manager's old onTimer scan with the order the
// contract now fixes: ascending slot, registration order within one.
func (r refCalendar) popThrough(through int64) []int {
	var slots []int64
	for slot := range r {
		if slot <= through {
			slots = append(slots, slot)
		}
	}
	slices.Sort(slots)
	var out []int
	for _, slot := range slots {
		out = append(out, r[slot]...)
		delete(r, slot)
	}
	return out
}

// TestCalendarMatchesMapOfSlices drives seeded-random Add / Remove /
// PopThrough sequences, used the way the managers use them (a member
// holds at most one reservation; re-reserving removes the old one
// first), and checks every query against the reference after each step.
func TestCalendarMatchesMapOfSlices(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const members, horizon = 12, 16
		var cal Calendar[int]
		ref := refCalendar{}
		reserved := make([]int64, members) // the managers' reservedSlot field
		for i := range reserved {
			reserved[i] = -1
		}
		base := int64(rng.Intn(100) - 50) // slots before the origin are legal
		for step := 0; step < 2000; step++ {
			p := rng.Intn(members)
			switch op := rng.Intn(10); {
			case op < 5: // reserve, replacing any earlier reservation
				slot := base + int64(rng.Intn(horizon))
				if reserved[p] >= 0 {
					cal.Remove(reserved[p], p)
					ref.remove(reserved[p], p)
				}
				cal.Add(slot, p)
				ref.add(slot, p)
				reserved[p] = slot
			case op < 7: // deregister
				if reserved[p] >= 0 {
					cal.Remove(reserved[p], p)
					ref.remove(reserved[p], p)
					reserved[p] = -1
				}
			case op < 8: // removing what is not there changes nothing
				cal.Remove(base+int64(rng.Intn(horizon)), members+1)
			default: // a wake: time moves on, everything due pops
				through := base + int64(rng.Intn(horizon/2))
				got, want := cal.PopThrough(through, nil), ref.popThrough(through)
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d: PopThrough(%d) = %v, reference %v", seed, step, through, got, want)
				}
				for _, q := range got {
					reserved[q] = -1
				}
				base += int64(rng.Intn(3))
			}
			for slot := base - 2; slot < base+horizon+2; slot++ {
				if got, want := cal.Has(slot), ref.has(slot); got != want {
					t.Fatalf("seed %d step %d: Has(%d) = %v, reference %v", seed, step, slot, got, want)
				}
				after := slot - int64(rng.Intn(horizon))
				gs, gok := cal.PrevReserved(slot, after)
				ws, wok := ref.prevReserved(slot, after)
				if gs != ws || gok != wok {
					t.Fatalf("seed %d step %d: PrevReserved(%d, %d) = %d,%v, reference %d,%v", seed, step, slot, after, gs, gok, ws, wok)
				}
			}
			gs, gok := cal.Earliest()
			ws, wok := ref.earliest()
			if gs != ws || gok != wok {
				t.Fatalf("seed %d step %d: Earliest = %d,%v, reference %d,%v", seed, step, gs, gok, ws, wok)
			}
		}
		// What finalDrain does: one pop takes whatever is left.
		if got, want := cal.PopThrough(math.MaxInt64, nil), ref.popThrough(math.MaxInt64); !slices.Equal(got, want) {
			t.Fatalf("seed %d: final pop = %v, reference %v", seed, got, want)
		}
		if _, ok := cal.Earliest(); ok {
			t.Fatalf("seed %d: calendar not empty after the final pop", seed)
		}
	}
}

// TestCalendarRegistrationOrder pins the order the simulator's golden
// counters depend on: members of one slot come out in the order they
// registered, a removal keeps the others' order, a member that
// re-registers goes to the back, and an earlier slot added later still
// pops first.
func TestCalendarRegistrationOrder(t *testing.T) {
	var cal Calendar[string]
	for _, p := range []string{"a", "b", "c", "d"} {
		cal.Add(7, p)
	}
	cal.Add(9, "x")
	cal.Add(3, "early")
	cal.Remove(7, "b")
	cal.Remove(7, "a")
	cal.Add(7, "a")
	if got, want := cal.PopThrough(7, []string{"kept"}), []string{"kept", "early", "c", "d", "a"}; !slices.Equal(got, want) {
		t.Fatalf("PopThrough(7) = %v, want %v", got, want)
	}
	if slot, ok := cal.Earliest(); !ok || slot != 9 {
		t.Fatalf("Earliest = %d,%v, want 9 left behind", slot, ok)
	}
	// A member registered while the caller works through a pop is not
	// part of that pop, even into a slot the pop covered.
	cal.Add(7, "late")
	if got := cal.PopThrough(8, nil); !slices.Equal(got, []string{"late"}) {
		t.Fatalf("PopThrough(8) = %v, want [late]", got)
	}
}

// TestCalendarDropsReferences: a removed or popped member must not stay
// reachable from the vacated tail of the calendar's storage.
func TestCalendarDropsReferences(t *testing.T) {
	var cal Calendar[*int]
	a, b, c := new(int), new(int), new(int)
	cal.Add(1, a)
	cal.Add(2, b)
	cal.Add(3, c)
	cal.Remove(2, b)
	cal.PopThrough(1, nil)
	for _, e := range cal.entries[:cap(cal.entries)][len(cal.entries):] {
		if e.member != nil {
			t.Fatalf("vacated entry still holds a member: %+v", e)
		}
	}
}

// TestCalendarSteadyStateAllocFree: once the calendar has held all of a
// manager's members at once, the reserve → pop cycle allocates nothing.
func TestCalendarSteadyStateAllocFree(t *testing.T) {
	const members = 8
	var cal Calendar[int]
	due := make([]int, 0, members)
	slot := int64(0)
	cycle := func() {
		for p := 0; p < members; p++ {
			cal.Add(slot+int64(p%3)+1, p) // three slots, latched
		}
		cal.Remove(slot+1, 3) // an overflow-forced drain re-reserves
		cal.Add(slot+3, 3)
		if !cal.Has(slot + 2) {
			t.Fatal("reserved slot not found")
		}
		for s := slot + 1; s <= slot+3; s++ {
			due = cal.PopThrough(s, due[:0])
		}
		slot += 3
	}
	cycle()
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Fatalf("reserve→pop cycle: %v allocs per run, want 0", avg)
	}
}
