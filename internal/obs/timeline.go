package obs

import (
	"sort"
	"sync/atomic"
)

// Kind classifies a timeline record.
type Kind uint8

const (
	KindTimerFire  Kind = iota + 1 // a manager's slot timer fired
	KindForcedWake                 // overflow forced an immediate drain
	KindDrain                      // one pair's batch drained (latched onto Wake)
	KindMigrate                    // pair moved between managers
	KindQuarantine                 // breaker opened
	KindRecover                    // breaker closed after a successful probe
	KindDrop                       // items discarded: redelivery exhausted, or a final drain failed
	KindOverrun                    // a handler ran past its HandlerTimeout deadline
)

var kindNames = [...]string{
	KindTimerFire:  "timer-fire",
	KindForcedWake: "forced-wake",
	KindDrain:      "drain",
	KindMigrate:    "migrate",
	KindQuarantine: "quarantine",
	KindRecover:    "recover",
	KindDrop:       "drop",
	KindOverrun:    "overrun",
}

// String returns the wire name used by the /debug/timeline JSON dump.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return "unknown"
}

// Record is one timeline entry. Seq orders records globally; Wake on a
// drain record is the Seq of the timer-fire or forced-wake that caused
// it, which is what lets a dump prove several pairs latched onto one
// shared fire (the live Fig. 6 signature).
type Record struct {
	Seq     uint64 // global order, assigned by Append
	Kind    Kind
	Nanos   int64  // runtime-relative time of the event
	Manager int    // core manager that observed it
	Slot    int64  // slot index at the event (-1 when not applicable)
	Pair    uint64 // pair ID; pair IDs start at 0, and a timer fire, which serves several pairs, has none
	Wake    uint64 // causing fire's Seq (drain records only; 0 when no fire caused it)
	Items   int    // delivered (drain), dropped (drop), batch size (overrun), pending (fire/wake)
}

// Timeline is a bounded lock-free ring of Records. Appends never block
// and never fail; once more than Cap records have been appended, each
// new one overwrites the oldest. That is the documented loss bound:
// a dump always holds the most recent min(appended, Cap) records.
type Timeline struct {
	slots []atomic.Pointer[Record]
	mask  uint64
	seq   atomic.Uint64
}

// NewTimeline returns a ring holding at least capacity records
// (rounded up to a power of two, minimum 16).
func NewTimeline(capacity int) *Timeline {
	n := 16
	for n < capacity {
		n <<= 1
	}
	return &Timeline{slots: make([]atomic.Pointer[Record], n), mask: uint64(n - 1)}
}

// Cap returns the ring capacity (the loss bound).
func (t *Timeline) Cap() int { return len(t.slots) }

// Append records r, assigns its Seq, and returns that Seq.
func (t *Timeline) Append(r Record) uint64 {
	seq := t.seq.Add(1)
	r.Seq = seq
	t.slots[seq&t.mask].Store(&r)
	return seq
}

// Appended returns how many records have ever been appended.
func (t *Timeline) Appended() uint64 { return t.seq.Load() }

// Dump returns the surviving records ordered by Seq. It is safe to call
// concurrently with Append; records overwritten mid-dump simply appear
// with their newer contents.
func (t *Timeline) Dump() []Record {
	out := make([]Record, 0, len(t.slots))
	for i := range t.slots {
		if p := t.slots[i].Load(); p != nil {
			out = append(out, *p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}
