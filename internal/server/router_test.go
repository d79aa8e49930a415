package server

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro"
)

// TestIngestHandoffCountsStreamsNotChunks pins the migrations_in
// counting unit: one chunked hand-off (first frame cont=false, later
// frames cont=true) is one migration, matching the sender's
// once-per-DetachStream migrations_out count regardless of how many
// frames the backlog needed.
func TestIngestHandoffCountsStreamsNotChunks(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	chunk := [][]byte{[]byte("a"), []byte("b")}
	if _, err := s.IngestHandoff("", "mig", chunk, false); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.IngestHandoff("", "mig", chunk, true); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.migrationsIn.Load(); got != 1 {
		t.Fatalf("migrations_in = %d after one hand-off in 4 chunks, want 1 (count streams, not frames)", got)
	}
	if got := s.migratedInItems.Load(); got != 8 {
		t.Fatalf("migrated_items_in = %d, want 8", got)
	}
	// A fresh hand-off for another stream counts again.
	if _, err := s.IngestHandoff("", "mig2", chunk, false); err != nil {
		t.Fatal(err)
	}
	if got := s.migrationsIn.Load(); got != 2 {
		t.Fatalf("migrations_in = %d after a second stream's hand-off, want 2", got)
	}
}

// TestIngestHandoffClassifiesQuarantined pins the verdict
// classification: a hand-off into a quarantined pair must count the
// items as Quarantined, not fold them into Shed — the conservation
// ledger separates the two terms.
func TestIngestHandoffClassifiesQuarantined(t *testing.T) {
	s := quarantinedServer(t, "q")
	res, err := s.IngestHandoff("", "q", [][]byte{[]byte("m1"), []byte("m2")}, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Quarantined != 2 || res.Shed != 0 || res.Accepted != 0 {
		t.Fatalf("verdict %+v, want Quarantined=2 (quarantine must not be misclassified as shed)", res)
	}
	if got := s.quarantinedMigrate.Load(); got != 2 {
		t.Fatalf("quarantinedMigrate = %d, want 2", got)
	}
	if got := s.shedMigrate.Load(); got != 0 {
		t.Fatalf("shedMigrate = %d, want 0", got)
	}
}

// TestIngestHandoffClassifiesClosed pins the ErrClosed class: a
// hand-off into a draining pair sheds the remaining items in one step
// instead of waiting out the 250 ms hand-off bound.
func TestIngestHandoffClassifiesClosed(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	if _, err := s.IngestHandoff("", "c", [][]byte{[]byte("a")}, false); err != nil {
		t.Fatal(err)
	}
	st, err := s.streamFor("c", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.pair.Close(); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res, err := s.IngestHandoff("", "c", [][]byte{[]byte("b"), []byte("c"), []byte("d")}, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Shed != 3 || res.Accepted != 0 || res.Quarantined != 0 {
		t.Fatalf("verdict %+v, want Shed=3 on a closed pair", res)
	}
	if since := time.Since(start); since > 500*time.Millisecond {
		t.Fatalf("hand-off into closed pair took %v; ErrClosed must short-circuit", since)
	}
}

// TestIngestHandoffAcceptsAndConserves pins the happy path plus the
// overflow class: every item of a hand-off lands in exactly one verdict
// bucket.
func TestIngestHandoffAcceptsAndConserves(t *testing.T) {
	s, _ := newTestServer(t, Config{
		HandlerFuncFor: func(string) func(context.Context, [][]byte) error {
			return func(ctx context.Context, _ [][]byte) error {
				time.Sleep(time.Second) // keep the buffer congested
				return nil
			}
		},
	}, repro.WithSlotSize(time.Second), repro.WithMaxLatency(5*time.Second), repro.WithBuffer(2))
	items := make([][]byte, 8)
	for i := range items {
		items[i] = []byte(fmt.Sprintf("item-%d", i))
	}
	res, err := s.IngestHandoff("", "o", items, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted+res.Shed+res.Quarantined != len(items) {
		t.Fatalf("verdict %+v does not conserve %d items", res, len(items))
	}
	if res.Accepted == 0 {
		t.Fatalf("verdict %+v, want some items accepted", res)
	}
	if res.Shed == 0 {
		t.Fatalf("verdict %+v, want overflow past the blocked handler shed", res)
	}
}

// TestIngestHandoffAnswersWithinOneStallBound: a hand-off chunk that
// meets a wedged consumer waits out one stall bound as a whole, not one
// per item. The receiver runs IngestHandoff inline on the peer
// connection, so a chunk that outlived the sender's call timeout was
// booked in doubt though every item had been ingested or shed.
func TestIngestHandoffAnswersWithinOneStallBound(t *testing.T) {
	s, _, _ := wedgedServer(t, 2)
	items := make([][]byte, 16)
	for i := range items {
		items[i] = []byte(fmt.Sprintf("item-%02d", i))
	}
	t0 := time.Now()
	res, err := s.IngestHandoff("", "wedged", items, false)
	elapsed := time.Since(t0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted+res.Shed+res.Quarantined != len(items) || res.Shed == 0 {
		t.Fatalf("verdict %+v, want all %d items classified, the overflow shed", res, len(items))
	}
	if elapsed < handoffWaitBound || elapsed >= 500*time.Millisecond {
		t.Fatalf("hand-off answered after %v, want one %v stall bound", elapsed, handoffWaitBound)
	}
	if got := s.overflowWaits[protoMig].Load(); got != 1 {
		t.Fatalf("mig overflow waits = %d, want 1", got)
	}
	if got := s.shedMigrate.Load(); got != uint64(res.Shed) {
		t.Fatalf("shedMigrate = %d, want %d", got, res.Shed)
	}
}

// nextOwner is the node a detached stream moves to. Its connection
// lock stands for the sweep's hold on the owner's peer connection, from
// DetachStream until the backlog's last mig frame is acknowledged:
// forwards queue behind the hand-off on it.
type nextOwner struct {
	conn     sync.Mutex
	received []string
}

func (o *nextOwner) Resolve(string) Route { return Route{Owner: "next"} }
func (o *nextOwner) Forward(_, _ string, items [][]byte) (IngestResult, error) {
	o.conn.Lock()
	defer o.conn.Unlock()
	for _, it := range items {
		o.received = append(o.received, string(it))
	}
	return IngestResult{Accepted: len(items)}, nil
}
func (o *nextOwner) Status() ClusterStatus { return ClusterStatus{} }

// TestDetachDuringHandoffWait: a hand-off waiting out an overflow does
// not hold the stream's read lock, so a DetachStream queued behind it —
// and, behind that writer, every other ingest on the stream — goes
// ahead at once. The admitted head leaves with the detach and the tail
// is forwarded behind it, so no item is lost or duplicated and the
// stream stays FIFO: delivered here, then shipped, then forwarded.
func TestDetachDuringHandoffWait(t *testing.T) {
	var col collector
	s, rt := newTestServer(t, Config{
		HandlerFor: func(key string) func([][]byte) {
			h := col.handlerFor(key)
			return func(batch [][]byte) {
				// Slow, never stalled: every drain lands well inside the
				// bound, so nothing is shed.
				time.Sleep(handoffWaitBound / 3)
				h(batch)
			}
		},
	}, repro.WithBuffer(2), repro.WithoutResizing(), repro.WithMaxLatency(4*time.Millisecond))
	next := &nextOwner{}
	s.SetRouter(next)
	items := make([][]byte, 16)
	for i := range items {
		items[i] = []byte(fmt.Sprintf("item-%02d", i))
	}
	type verdict struct {
		res IngestResult
		err error
	}
	done := make(chan verdict, 1)
	go func() {
		res, err := s.IngestHandoff("", "mig", items, false)
		done <- verdict{res, err}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for rt.Stats().Overflows == 0 { // the hand-off is now in its wait
		if time.Now().After(deadline) {
			t.Fatal("hand-off never overflowed")
		}
		time.Sleep(100 * time.Microsecond)
	}
	t0 := time.Now()
	next.conn.Lock()
	shipped, _, ok := s.DetachStream("mig")
	took := time.Since(t0)
	for _, it := range shipped {
		next.received = append(next.received, string(it))
	}
	next.conn.Unlock()
	if !ok || took >= handoffWaitBound {
		t.Fatalf("DetachStream ok=%v after %v, want it inside the %v wait bound", ok, took, handoffWaitBound)
	}
	v := <-done
	if v.err != nil || v.res != (IngestResult{Accepted: len(items)}) {
		t.Fatalf("verdict %+v, %v; want all %d accepted", v.res, v.err, len(items))
	}
	if len(next.received) == len(shipped) {
		t.Fatal("the detach left no tail waiting: the test did not exercise the forward")
	}
	here := len(items) - len(next.received)
	col.waitFor(t, here)
	got := append(col.strings()["mig"], next.received...)
	if len(got) != len(items) {
		t.Fatalf("%d items delivered here, shipped or forwarded, want %d", len(got), len(items))
	}
	for i, it := range got {
		if want := string(items[i]); it != want {
			t.Fatalf("item %d at its next stop is %s, want %s (delivered here %d, shipped %d, forwarded %d)",
				i, it, want, here, len(shipped), len(next.received)-len(shipped))
		}
	}
}
