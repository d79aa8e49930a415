package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/tenant"
)

// newTestServer builds a runtime + server tuned for fast test drains.
func newTestServer(t *testing.T, cfg Config, rtOpts ...repro.Option) (*Server, *repro.Runtime) {
	t.Helper()
	opts := append([]repro.Option{
		repro.WithSlotSize(2 * time.Millisecond),
		repro.WithMaxLatency(10 * time.Millisecond),
		repro.WithBuffer(512),
		repro.WithMaxPairs(16),
	}, rtOpts...)
	rt, err := repro.New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Runtime = rt
	s, err := New(cfg)
	if err != nil {
		rt.Close()
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		rt.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
		rt.Close()
	})
	return s, rt
}

// postLines sends one ingest request of newline-joined items.
func postLines(t *testing.T, base, stream string, lines []string) (status, accepted, shed int) {
	t.Helper()
	body := strings.Join(lines, "\n")
	resp, err := http.Post(base+"/ingest/"+stream, "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var r struct {
		Accepted int `json:"accepted"`
		Shed     int `json:"shed"`
	}
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusTooManyRequests {
		if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
			t.Fatalf("ingest response decode: %v", err)
		}
	}
	return resp.StatusCode, r.Accepted, r.Shed
}

// scrapeMetrics fetches /metrics into a map of "name{labels}" → value.
func scrapeMetrics(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		var v float64
		if _, err := fmt.Sscanf(line[sp+1:], "%g", &v); err == nil {
			out[line[:sp]] = v
		}
	}
	return out
}

func waitDrained(t *testing.T, base string, want float64) map[string]float64 {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		m := scrapeMetrics(t, base)
		if m["pcd_items_in_total"] == m["pcd_items_out_total"] && m["pcd_items_in_total"] >= want {
			return m
		}
		if time.Now().After(deadline) {
			t.Fatalf("not drained: in=%v out=%v want>=%v",
				m["pcd_items_in_total"], m["pcd_items_out_total"], want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestHTTPIngestEndToEnd(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	base := "http://" + s.Addr()

	streams := []string{"api", "static", "audit", "analytics"}
	const perStream = 1000
	lines := make([]string, 100)
	sent := 0
	for _, key := range streams {
		acc := 0
		for acc < perStream {
			for i := range lines {
				lines[i] = fmt.Sprintf("%s-item-%d", key, acc+i)
			}
			status, a, _ := postLines(t, base, key, lines)
			if status != http.StatusOK && status != http.StatusTooManyRequests {
				t.Fatalf("ingest status %d", status)
			}
			acc += a
			if status == http.StatusTooManyRequests {
				time.Sleep(2 * time.Millisecond) // let a drain make room
			}
		}
		sent += acc
	}

	m := waitDrained(t, base, float64(sent))
	if m["pcd_streams"] != float64(len(streams)) {
		t.Errorf("pcd_streams = %v, want %d", m["pcd_streams"], len(streams))
	}
	for _, key := range streams {
		series := fmt.Sprintf("pcd_stream_items_in_total{stream=%q,pair=", key)
		found := false
		for name := range m {
			if strings.HasPrefix(name, series) {
				found = true
			}
		}
		if !found {
			t.Errorf("no per-stream series for %q", key)
		}
	}
	if m["pcd_timer_wakes_total"]+m["pcd_forced_wakes_total"] <= 0 {
		t.Error("no wakeups recorded")
	}
	if m["pcd_estimated_power_milliwatts"] <= 0 {
		t.Error("no power estimate")
	}

	// statusz agrees with the scrape.
	resp, err := http.Get(base + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statusz
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if len(st.Streams) != len(streams) {
		t.Errorf("statusz streams = %d, want %d", len(st.Streams), len(streams))
	}
	if st.Runtime.ItemsIn != uint64(sent) || st.Runtime.ItemsOut != uint64(sent) {
		t.Errorf("statusz items in/out = %d/%d, want %d", st.Runtime.ItemsIn, st.Runtime.ItemsOut, sent)
	}
	var perStreamIn uint64
	for _, ss := range st.Streams {
		perStreamIn += ss.ItemsIn
	}
	if perStreamIn != st.Runtime.ItemsIn {
		t.Errorf("per-stream ItemsIn sums to %d, runtime says %d", perStreamIn, st.Runtime.ItemsIn)
	}
}

func TestLoadSheddingNeverBlocksAcceptLoop(t *testing.T) {
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	cfg := Config{
		HandlerFor: func(key string) func([][]byte) {
			return func([][]byte) {
				select {
				case entered <- struct{}{}:
				default:
				}
				<-release // wedge the core manager: quota can never free
			}
		},
	}
	s, _ := newTestServer(t, cfg, repro.WithBuffer(8), repro.WithMaxLatency(4*time.Millisecond))
	defer close(release)
	base := "http://" + s.Addr()

	// First item arms the pair; its drain wedges the manager.
	if status, _, _ := postLines(t, base, "wedged", []string{"x"}); status != http.StatusOK {
		t.Fatalf("first ingest status %d", status)
	}
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("handler never entered")
	}

	// Fill the quota; once full, ingest must shed with 429.
	got429 := false
	for i := 0; i < 1000 && !got429; i++ {
		status, _, shed := postLines(t, base, "wedged", []string{fmt.Sprintf("fill-%d", i)})
		switch status {
		case http.StatusOK:
		case http.StatusTooManyRequests:
			if shed != 1 {
				t.Fatalf("429 with shed=%d", shed)
			}
			got429 = true
		default:
			t.Fatalf("ingest status %d", status)
		}
	}
	if !got429 {
		t.Fatal("never saw 429 with a wedged consumer and a full buffer")
	}

	// The ops surface must stay responsive while the pair is at quota.
	client := &http.Client{Timeout: 2 * time.Second}
	resp, err := client.Get(base + "/statusz")
	if err != nil {
		t.Fatalf("statusz while shedding: %v", err)
	}
	resp.Body.Close()

	m := scrapeMetrics(t, base)
	if m[`pcd_shed_total{proto="http"}`] < 1 {
		t.Errorf("shed counter = %v, want >= 1", m[`pcd_shed_total{proto="http"}`])
	}
	if m["pcd_overflows_total"] < 1 {
		t.Errorf("overflow counter = %v, want >= 1", m["pcd_overflows_total"])
	}
}

func TestIngestValidation(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	base := "http://" + s.Addr()

	resp, err := http.Get(base + "/ingest/key")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET ingest = %d, want 405", resp.StatusCode)
	}

	if status, _, _ := postLines(t, base, "bad/key", []string{"x"}); status != http.StatusBadRequest {
		t.Errorf("slash key = %d, want 400", status)
	}
	if status, _, _ := postLines(t, base, strings.Repeat("k", 300), []string{"x"}); status != http.StatusBadRequest {
		t.Errorf("long key = %d, want 400", status)
	}
	if status, _, _ := postLines(t, base, "ok", nil); status != http.StatusBadRequest {
		t.Errorf("empty body = %d, want 400", status)
	}

	resp, err = http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz = %d", resp.StatusCode)
	}
}

// serveHTTP sends one request through the server's whole HTTP handler,
// dispatch included, and returns the recorded answer. hdr holds header
// name, value pairs.
func serveHTTP(s *Server, method, target, body string, hdr ...string) *httptest.ResponseRecorder {
	r := httptest.NewRequest(method, target, strings.NewReader(body))
	for i := 0; i+1 < len(hdr); i += 2 {
		r.Header.Set(hdr[i], hdr[i+1])
	}
	w := httptest.NewRecorder()
	s.httpSrv.Handler.ServeHTTP(w, r)
	return w
}

// TestIngestDispatch: ingest is served ahead of the mux only for clean
// paths, so every path the mux cleans, redirects or refuses gets the
// mux's own answer, and the ops routes stay on the mux.
func TestIngestDispatch(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	for _, tc := range []struct {
		method, target string
		code           int
		location       string
	}{
		{http.MethodPost, "/ingest/k", http.StatusOK, ""},
		{http.MethodPost, "/ingest/./k", http.StatusMovedPermanently, "/ingest/k"},
		{http.MethodPost, "/ingest//k", http.StatusMovedPermanently, "/ingest/k"},
		{http.MethodPost, "/ingest/a/../k", http.StatusMovedPermanently, "/ingest/k"},
		{http.MethodPost, "/ingest/./k?x=1", http.StatusMovedPermanently, "/ingest/k?x=1"},
		{http.MethodPost, "/ingest/k/", http.StatusBadRequest, ""},
		{http.MethodPost, "/ingest/", http.StatusBadRequest, ""},
		{http.MethodPost, "/ingest", http.StatusMovedPermanently, "/ingest/"},
		{http.MethodGet, "/ingest/k", http.StatusMethodNotAllowed, ""},
		{http.MethodGet, "/healthz", http.StatusOK, ""},
	} {
		w := serveHTTP(s, tc.method, tc.target, "x")
		if loc := w.Header().Get("Location"); w.Code != tc.code || loc != tc.location {
			t.Errorf("%s %s: %d Location %q, want %d Location %q", tc.method, tc.target, w.Code, loc, tc.code, tc.location)
		}
	}
}

// verdictRef renders a verdict the way the ingest handler once did,
// with fmt: the reference writeVerdict must match byte for byte.
func verdictRef(key string, res IngestResult, route Route) string {
	owner := ""
	if !route.Local {
		owner = fmt.Sprintf(`,"owner":%q`, route.Owner)
	}
	return fmt.Sprintf(`{"stream":%q,"accepted":%d,"shed":%d,"quarantined":%d%s}`+"\n",
		key, res.Accepted, res.Shed, res.Quarantined, owner)
}

// rateShedRef is the fmt reference for a request the tenant's rate
// budget shed whole.
func rateShedRef(key string, shed int) string {
	return fmt.Sprintf(`{"stream":%q,"accepted":0,"shed":%d,"quarantined":0}`+"\n", key, shed)
}

// stubRouter sends every key to one remote owner and answers every
// forward with res.
type stubRouter struct {
	owner string
	res   IngestResult
}

func (r *stubRouter) Resolve(string) Route { return Route{Owner: r.owner} }
func (r *stubRouter) Forward(string, string, [][]byte) (IngestResult, error) {
	return r.res, nil
}
func (r *stubRouter) Status() ClusterStatus { return ClusterStatus{} }

// TestVerdictBytes pins the ingest verdict's bytes and status against
// the fmt reference, for keys JSON must escape, with and without an
// owner, at 200, 429 (rate-shed whole, and shed in part) and 503.
func TestVerdictBytes(t *testing.T) {
	owner := `n"2\é`
	for i, key := range []string{"plain", `q"uote`, `back\slash`, "ünï-😀", "ctl\x01\x1f\x7f", "bad\xffutf8"} {
		t.Run(fmt.Sprint(i), func(t *testing.T) {
			target := "/ingest/" + url.PathEscape(key)
			check := func(what string, w *httptest.ResponseRecorder, code int, want string) {
				t.Helper()
				if w.Code != code || w.Body.String() != want || w.Header().Get("Content-Type") != "application/json" {
					t.Errorf("key %q, %s: %d %q (%s), want %d %q", key, what, w.Code, w.Body.String(), w.Header().Get("Content-Type"), code, want)
				}
			}
			local := Route{Local: true}

			open, _ := newTestServer(t, Config{})
			check("accepted", serveHTTP(open, http.MethodPost, target, "a\nb"),
				http.StatusOK, verdictRef(key, IngestResult{Accepted: 2}, local))

			reg := testTenantRegistry(t, tenant.File{GlobalBuffer: 100, Tenants: []tenant.Spec{
				{ID: "t", Keys: []string{"k"}, Rate: 0.001, Burst: 1, Buffer: 100},
			}})
			metered, _ := newTestServer(t, Config{Tenants: reg})
			check("shed in part", serveHTTP(metered, http.MethodPost, target, "a\nb\nc", "X-Api-Key", "k"),
				http.StatusTooManyRequests, verdictRef(key, IngestResult{Accepted: 1, Shed: 2}, local))
			check("rate-shed whole", serveHTTP(metered, http.MethodPost, target, "a\nb", "X-Api-Key", "k"),
				http.StatusTooManyRequests, rateShedRef(key, 2))

			check("quarantined", serveHTTP(quarantinedServer(t, key), http.MethodPost, target, "a\nb"),
				http.StatusServiceUnavailable, verdictRef(key, IngestResult{Quarantined: 2}, local))

			routed, _ := newTestServer(t, Config{})
			stub := &stubRouter{owner: owner}
			routed.SetRouter(stub)
			for code, res := range map[int]IngestResult{
				http.StatusOK:                 {Accepted: 2},
				http.StatusTooManyRequests:    {Accepted: 1, Shed: 1},
				http.StatusServiceUnavailable: {Accepted: 1, Quarantined: 1},
			} {
				stub.res = res
				check("forwarded", serveHTTP(routed, http.MethodPost, target, "a\nb"),
					code, verdictRef(key, res, Route{Owner: owner}))
			}
		})
	}
}

func TestStreamCapIs503(t *testing.T) {
	s, _ := newTestServer(t, Config{}, repro.WithMaxPairs(2))
	base := "http://" + s.Addr()
	for i, want := range []int{http.StatusOK, http.StatusOK, http.StatusServiceUnavailable} {
		status, _, _ := postLines(t, base, fmt.Sprintf("s%d", i), []string{"x"})
		if status != want {
			t.Fatalf("stream %d status = %d, want %d", i, status, want)
		}
	}
	m := scrapeMetrics(t, base)
	if m["pcd_stream_rejects_total"] != 1 {
		t.Errorf("stream rejects = %v, want 1", m["pcd_stream_rejects_total"])
	}
}

func TestShutdownDrainsAndRejects(t *testing.T) {
	s, rt := newTestServer(t, Config{}, repro.WithMaxLatency(200*time.Millisecond), repro.WithSlotSize(50*time.Millisecond))
	base := "http://" + s.Addr()

	// Long slot: items sit buffered when Shutdown begins.
	lines := make([]string, 200)
	for i := range lines {
		lines[i] = fmt.Sprintf("item-%d", i)
	}
	var sent int
	for _, key := range []string{"a", "b"} {
		status, acc, _ := postLines(t, base, key, lines)
		if status != http.StatusOK {
			t.Fatalf("ingest status %d", status)
		}
		sent += acc
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 4*time.Second {
		t.Fatalf("Shutdown took %v", elapsed)
	}
	st := rt.Stats()
	if st.ItemsOut != st.ItemsIn || st.ItemsIn != uint64(sent) {
		t.Fatalf("after drain: in=%d out=%d sent=%d", st.ItemsIn, st.ItemsOut, sent)
	}

	// Ingest after drain starts is refused, and Shutdown is idempotent.
	if _, err := http.Post(base+"/ingest/a", "text/plain", strings.NewReader("x")); err == nil {
		t.Error("ingest after shutdown should fail (listener closed)")
	}
	if err := s.Shutdown(ctx); err != nil {
		t.Errorf("second Shutdown: %v", err)
	}
}

// TestPlacementSurfaces enables consolidation, opens several idle
// streams spread over four managers, waits for the controller to pack
// them, and checks both /metrics and /statusz expose the placement
// story: migrations_total, active_managers, per-manager wakeup
// counters, and the last plan.
func TestPlacementSurfaces(t *testing.T) {
	s, _ := newTestServer(t, Config{},
		repro.WithManagers(4),
		repro.WithConsolidation(repro.ConsolidationConfig{Interval: 10 * time.Millisecond}),
	)
	base := "http://" + s.Addr()
	for i := 0; i < 6; i++ {
		status, accepted, _ := postLines(t, base, fmt.Sprintf("s%d", i), []string{"x"})
		if status != http.StatusOK || accepted != 1 {
			t.Fatalf("ingest stream %d: status %d accepted %d", i, status, accepted)
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	var m map[string]float64
	for {
		m = scrapeMetrics(t, base)
		if m["pcd_active_managers"] == 1 && m["pcd_migrations_total"] >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("never consolidated: active=%v migrations=%v",
				m["pcd_active_managers"], m["pcd_migrations_total"])
		}
		time.Sleep(5 * time.Millisecond)
	}
	if m["pcd_placement_plans_total"] < 1 {
		t.Fatalf("pcd_placement_plans_total = %v, want >= 1", m["pcd_placement_plans_total"])
	}
	var hosted float64
	for i := 0; i < 4; i++ {
		hosted += m[fmt.Sprintf("pcd_manager_pairs{manager=%q}", fmt.Sprint(i))]
	}
	if hosted != 6 {
		t.Fatalf("per-manager pair gauges sum to %v, want 6", hosted)
	}

	resp, err := http.Get(base + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Placement struct {
			Enabled         bool   `json:"enabled"`
			ActiveManagers  int    `json:"active_managers"`
			Plans           uint64 `json:"plans"`
			MigrationsTotal uint64 `json:"migrations_total"`
			LastPlanAt      string `json:"last_plan_at"`
			LastPlanActive  int    `json:"last_plan_active"`
			Managers        []struct {
				Pairs int `json:"pairs"`
			} `json:"managers"`
		} `json:"placement"`
		Streams []struct {
			Manager int `json:"Manager"`
		} `json:"streams"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	pl := st.Placement
	if !pl.Enabled || pl.Plans < 1 || pl.MigrationsTotal < 1 {
		t.Fatalf("placement section %+v, want enabled with plans and migrations", pl)
	}
	if pl.ActiveManagers != 1 || pl.LastPlanActive != 1 {
		t.Fatalf("active managers %d, last plan active %d, want 1", pl.ActiveManagers, pl.LastPlanActive)
	}
	if pl.LastPlanAt == "" {
		t.Fatal("last_plan_at empty after plans ran")
	}
	if len(pl.Managers) != 4 {
		t.Fatalf("managers section has %d entries, want 4", len(pl.Managers))
	}
}
