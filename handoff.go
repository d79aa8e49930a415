package repro

// Handoff quiesce-drains the pair for a cross-process migration: it
// detaches the pair from its core manager and closes it WITHOUT running
// the consumer handler, returning every unprocessed item — a failed
// batch retained for redelivery first, then the buffered items, in FIFO
// order — so the caller can ship them to the pair's new owner (see
// internal/cluster). Where Close spends the items locally (the
// handler runs one final time), Handoff preserves them: the items are
// accounted in Stats.HandedOff / PairStats.HandedOff, keeping the
// conservation ledger exact — after Handoff,
//
//	ItemsIn == ItemsOut + ItemsDropped + HandedOff
//
// and a re-ingest of the returned items at the new owner counts them as
// that owner's ItemsIn, so the fleet-level ledger stays balanced:
// Σ ItemsIn − Σ HandedOff equals the items producers actually sent.
//
// Further Puts return ErrClosed. Handoff on an already-closed pair
// returns (nil, ErrClosed); like Close, it must not be called from a
// manager goroutine (it blocks on one).
func (p *Pair[T]) Handoff() ([]T, error) {
	var items []T
	take := func() {
		p.drainMu.Lock()
		items = append(items, p.retry...)
		p.clearRetry()
		items = p.q.DrainTo(items)
		p.drainMu.Unlock()
	}
	// If the owning manager already stopped (Runtime.Close raced in), its
	// final sweep drains through the handler, so only items it never saw
	// are left to take.
	if !p.shut(take, take) {
		return nil, ErrClosed
	}
	if n := uint64(len(items)); n > 0 {
		p.st.handedOff.Add(n)
		p.rt.stats.handedOff.Add(n)
	}
	return items, nil
}
