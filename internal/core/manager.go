package core

import (
	"repro/internal/sim"
	"repro/internal/simtime"
	"repro/internal/track"
)

// coreManager owns one core's slot track: it "accepts reservation
// requests for specific slots made by the consumers, maintains a list
// of consumers to invoke at every slot, and supports deregistering"
// (§V-B). It wakes the core only at the earliest slot holding at least
// one reservation, "ensuring that the CPU is not activated needlessly".
type coreManager struct {
	core  *sim.Core
	loop  *simtime.Loop
	track track.Track

	// cal holds the consumers registered for each slot, and due is the
	// scratch onWake pops the current slot's consumers into.
	cal track.Calendar[*consumer]
	due []*consumer

	wakeEvent *simtime.Event
	wakeSlot  int64

	// scheduledWakes counts manager slot activations — the paper's
	// internal "upper bound wakeups" metric.
	scheduledWakes uint64
}

func newCoreManager(core *sim.Core, loop *simtime.Loop, tr track.Track) *coreManager {
	return &coreManager{core: core, loop: loop, track: tr}
}

// reserve registers c for slot, replacing any previous reservation, and
// pulls the manager's wakeup earlier if needed.
func (cm *coreManager) reserve(c *consumer, slot int64) {
	if c.reservedSlot == slot {
		return
	}
	cm.deregister(c)
	cm.cal.Add(slot, c)
	c.reservedSlot = slot
	cm.ensureWake()
}

// deregister removes c's pending reservation, if any — "a consumer may
// decide a slot is no longer appropriate".
func (cm *coreManager) deregister(c *consumer) {
	if c.reservedSlot < 0 {
		return
	}
	slot := c.reservedSlot
	cm.cal.Remove(slot, c)
	c.reservedSlot = -1
	// If the manager was about to wake for a now-empty slot, move the
	// wakeup to the next populated one (or cancel it).
	if cm.wakeEvent != nil && slot == cm.wakeSlot && !cm.cal.Has(slot) {
		cm.loop.Cancel(cm.wakeEvent)
		cm.wakeEvent = nil
		cm.ensureWake()
	}
}

// ensureWake keeps the manager's single wake event pointed at the
// earliest reserved slot.
func (cm *coreManager) ensureWake() {
	slot, ok := cm.cal.Earliest()
	if !ok {
		if cm.wakeEvent != nil {
			cm.loop.Cancel(cm.wakeEvent)
			cm.wakeEvent = nil
		}
		return
	}
	at := cm.track.Start(slot)
	if cm.wakeEvent != nil {
		if cm.wakeSlot == slot {
			return
		}
		cm.loop.Cancel(cm.wakeEvent)
	}
	cm.wakeSlot = slot
	cm.wakeEvent = cm.loop.Schedule(at, cm.onWake)
}

// onWake is the §V-B Fig. 7 sequence: activate every consumer
// registered for the current slot (they drain, update predictions,
// resize, and reserve their next slot), then schedule the next wakeup
// at the earliest slot with a reservation.
func (cm *coreManager) onWake() {
	cm.wakeEvent = nil
	slot := cm.wakeSlot
	cm.due = cm.cal.PopThrough(slot, cm.due[:0])
	cm.scheduledWakes++
	for _, c := range cm.due {
		c.reservedSlot = -1
		c.invoke(true)
	}
	cm.ensureWake()
}
