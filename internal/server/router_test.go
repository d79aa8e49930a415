package server

import (
	"context"
	"fmt"
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
// instead of paying the 250ms PutWait per item.
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
