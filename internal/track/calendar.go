package track

import (
	"cmp"
	"slices"
)

// Calendar is a core manager's reservation book (§V-B): which members
// are registered for which slot. "Past reservations are replaced and
// future reservations are limited to only the next invocation of every
// consumer", so it holds at most one entry per member hosted on the
// manager. The simulator's and the live runtime's managers share it;
// each keeps its own wake bookkeeping and its members' "which slot am I
// in" field.
//
// Storage is one slice of (slot, member) entries in ascending slot and,
// within a slot, registration order: lookups are a binary search,
// Earliest is the first entry, and once the slice has held every hosted
// member at the same time no operation allocates. The zero value is an
// empty calendar; it is not safe for concurrent use.
type Calendar[P comparable] struct {
	entries []entry[P]
}

type entry[P comparable] struct {
	slot   int64
	member P
}

// lower returns the index of the first entry registered at or after
// slot.
func (c *Calendar[P]) lower(slot int64) int {
	i, _ := slices.BinarySearchFunc(c.entries, slot, func(e entry[P], s int64) int {
		return cmp.Compare(e.slot, s)
	})
	return i
}

// Has reports whether slot holds at least one reservation — the w(s)=0
// condition of the reservation cost function (Eq. 8).
func (c *Calendar[P]) Has(slot int64) bool {
	i := c.lower(slot)
	return i < len(c.entries) && c.entries[i].slot == slot
}

// PrevReserved returns the latest reserved slot strictly inside
// (after, before): the paper's "helper function in the core manager
// that backtracks to the next slot with reservations".
func (c *Calendar[P]) PrevReserved(before, after int64) (int64, bool) {
	i := c.lower(before)
	if i == 0 || c.entries[i-1].slot <= after {
		return 0, false
	}
	return c.entries[i-1].slot, true
}

// Earliest returns the lowest reserved slot.
func (c *Calendar[P]) Earliest() (int64, bool) {
	if len(c.entries) == 0 {
		return 0, false
	}
	return c.entries[0].slot, true
}

// Add registers p for slot, behind the members already registered there.
func (c *Calendar[P]) Add(slot int64, p P) {
	c.entries = slices.Insert(c.entries, c.lower(slot+1), entry[P]{slot: slot, member: p})
}

// Remove drops p's registration for slot, if it has one; the other
// members keep their order.
func (c *Calendar[P]) Remove(slot int64, p P) {
	for i := c.lower(slot); i < len(c.entries) && c.entries[i].slot == slot; i++ {
		if c.entries[i].member == p {
			c.entries = slices.Delete(c.entries, i, i+1)
			return
		}
	}
}

// PopThrough removes every member of every slot ≤ through and appends
// them to dst in ascending slot, then registration order. Members
// registered while the caller works through the result are not part of
// it. (slices.Delete zeroes the vacated tail, here and in Remove, so a
// dropped member is not kept reachable.)
func (c *Calendar[P]) PopThrough(through int64, dst []P) []P {
	k := 0
	for k < len(c.entries) && c.entries[k].slot <= through {
		dst = append(dst, c.entries[k].member)
		k++
	}
	c.entries = slices.Delete(c.entries, 0, k)
	return dst
}
