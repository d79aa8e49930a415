package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// lockedBuffer is the daemon's stderr in these tests: the server's and
// the cluster node's Logf goroutines write it concurrently while the
// test reads it to report a failure.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// startDaemon runs the daemon in-process and returns its base URL, the
// injected signal channel, and the exit-code channel.
func startDaemon(t *testing.T, extraArgs ...string) (string, chan os.Signal, chan int) {
	t.Helper()
	addrFile := filepath.Join(t.TempDir(), "addr")
	args := append([]string{
		"-http", "127.0.0.1:0",
		"-addr-file", addrFile,
		"-slot", "2ms",
		"-latency", "10ms",
		"-buffer", "512",
		"-drain", "10s",
	}, extraArgs...)
	sig := make(chan os.Signal, 1)
	exit := make(chan int, 1)
	var logs lockedBuffer
	go func() {
		exit <- run(args, sig, io.Discard, &logs)
	}()
	t.Cleanup(func() {
		select {
		case sig <- syscall.SIGTERM:
		default:
		}
	})

	deadline := time.Now().Add(10 * time.Second)
	for {
		raw, err := os.ReadFile(addrFile)
		if err == nil {
			for _, line := range strings.Split(string(raw), "\n") {
				if addr, ok := strings.CutPrefix(line, "http="); ok && addr != "" {
					return "http://" + addr, sig, exit
				}
			}
		}
		select {
		case code := <-exit:
			t.Fatalf("daemon exited early with %d; logs:\n%s", code, logs.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never published its address; logs:\n%s", logs.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func scrape(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
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

// TestSmoke is the acceptance end-to-end: start the daemon, ingest
// ≥ 10k items over HTTP across ≥ 4 streams, verify /metrics reports
// ItemsOut == ItemsIn once drained, then SIGTERM and a clean exit
// within the drain deadline.
func TestSmoke(t *testing.T) {
	base, sig, exit := startDaemon(t)

	streams := []string{"api", "static", "audit", "analytics"}
	const perStream = 2500
	lines := make([]string, 125)
	total := 0
	for _, key := range streams {
		acc := 0
		for acc < perStream {
			for i := range lines {
				lines[i] = fmt.Sprintf("%s-%d", key, acc+i)
			}
			resp, err := http.Post(base+"/ingest/"+key, "text/plain",
				strings.NewReader(strings.Join(lines, "\n")))
			if err != nil {
				t.Fatal(err)
			}
			var r struct {
				Accepted int `json:"accepted"`
				Shed     int `json:"shed"`
			}
			if err := jsonDecode(resp.Body, &r); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusTooManyRequests {
				t.Fatalf("ingest status %d", resp.StatusCode)
			}
			acc += r.Accepted
			if r.Shed > 0 {
				time.Sleep(2 * time.Millisecond)
			}
		}
		total += acc
	}
	if total < 10000 {
		t.Fatalf("ingested %d items, want >= 10000", total)
	}

	// Wait for the natural drain, observed through /metrics.
	deadline := time.Now().Add(10 * time.Second)
	var m map[string]float64
	for {
		m = scrape(t, base)
		if m["pcd_items_in_total"] == m["pcd_items_out_total"] &&
			m["pcd_items_in_total"] >= float64(total) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("never drained: in=%v out=%v", m["pcd_items_in_total"], m["pcd_items_out_total"])
		}
		time.Sleep(5 * time.Millisecond)
	}
	if m["pcd_streams"] != float64(len(streams)) {
		t.Errorf("pcd_streams = %v, want %d", m["pcd_streams"], len(streams))
	}

	// SIGTERM: clean exit within the drain deadline.
	sig <- syscall.SIGTERM
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("exit code %d, want 0", code)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not exit after SIGTERM")
	}
}

func TestSmokeTCPAndWork(t *testing.T) {
	base, sig, exit := startDaemon(t, "-tcp", "127.0.0.1:0", "-work", "1us", "-managers", "2")

	resp, err := http.Post(base+"/ingest/w", "text/plain", strings.NewReader("a\nb\nc"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		m := scrape(t, base)
		if m["pcd_items_out_total"] >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("work items never drained")
		}
		time.Sleep(5 * time.Millisecond)
	}

	sig <- syscall.SIGTERM
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("exit code %d, want 0", code)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not exit after SIGTERM")
	}
}

func jsonDecode(r io.Reader, v any) error {
	return json.NewDecoder(r).Decode(v)
}

// TestObservabilityFlags boots with -histograms and -timeline, ingests
// traffic, and checks the three observability surfaces: the wakeup
// timeline JSON, per-stream Prometheus latency histograms, and the
// pprof mux registration.
func TestObservabilityFlags(t *testing.T) {
	base, sig, exit := startDaemon(t, "-histograms", "-timeline", "1024")

	lines := make([]string, 64)
	for i := range lines {
		lines[i] = fmt.Sprintf("item-%d", i)
	}
	body := strings.Join(lines, "\n")
	for i := 0; i < 8; i++ {
		for _, key := range []string{"a", "b"} {
			resp, err := http.Post(base+"/ingest/"+key, "text/plain", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
		}
		time.Sleep(2 * time.Millisecond)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		var tl struct {
			Enabled bool `json:"enabled"`
			Cap     int  `json:"cap"`
			Records []struct {
				Kind string `json:"kind"`
			} `json:"records"`
		}
		resp, err := http.Get(base + "/debug/timeline")
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&tl)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !tl.Enabled || tl.Cap != 1024 {
			t.Fatalf("timeline enabled=%v cap=%d, want enabled cap 1024", tl.Enabled, tl.Cap)
		}
		m := scrape(t, base)
		_, histA := m[`pcd_stream_latency_seconds_count{stream="a",pair="0"}`]
		if len(tl.Records) > 0 && histA {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("observability surfaces never populated: %d records, hist=%v", len(tl.Records), histA)
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, err := http.Get(base + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline status %d", resp.StatusCode)
	}

	sig <- syscall.SIGTERM
	if code := <-exit; code != 0 {
		t.Fatalf("exit code %d", code)
	}
}

// TestConsolidateFlag boots the daemon with the placement controller
// on, ingests into streams spread over four managers, and waits for
// /statusz to report them packed onto one.
func TestConsolidateFlag(t *testing.T) {
	base, sig, exit := startDaemon(t,
		"-managers", "4",
		"-consolidate",
		"-consolidate-interval", "10ms",
	)
	for i := 0; i < 6; i++ {
		resp, err := http.Post(fmt.Sprintf("%s/ingest/s%d", base, i), "text/plain", strings.NewReader("x"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest stream %d: status %d", i, resp.StatusCode)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(base + "/statusz")
		if err != nil {
			t.Fatal(err)
		}
		var st struct {
			Placement struct {
				Enabled         bool   `json:"enabled"`
				ActiveManagers  int    `json:"active_managers"`
				MigrationsTotal uint64 `json:"migrations_total"`
			} `json:"placement"`
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !st.Placement.Enabled {
			t.Fatal("placement disabled despite -consolidate")
		}
		if st.Placement.ActiveManagers == 1 && st.Placement.MigrationsTotal >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("never consolidated: %+v", st.Placement)
		}
		time.Sleep(10 * time.Millisecond)
	}
	sig <- syscall.SIGTERM
	if code := <-exit; code != 0 {
		t.Fatalf("exit code %d", code)
	}
}

// TestPowerCapFlag boots the daemon with a deliberately unattainable
// power budget, ingests a burst, and waits for /statusz and /metrics to
// report the cap controller throttling — then verifies the drain still
// delivers every accepted item (throttling slows consumption, never
// loses it).
func TestPowerCapFlag(t *testing.T) {
	base, sig, exit := startDaemon(t,
		"-managers", "2",
		"-power-cap", "0.5",
		"-power-cap-interval", "5ms",
	)

	post := func() {
		lines := make([]string, 200)
		for i := range lines {
			lines[i] = fmt.Sprintf("x-%d", i)
		}
		resp, err := http.Post(base+"/ingest/burst", "text/plain",
			strings.NewReader(strings.Join(lines, "\n")))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		post()
		resp, err := http.Get(base + "/statusz")
		if err != nil {
			t.Fatal(err)
		}
		var st struct {
			Power *struct {
				Enabled        bool    `json:"enabled"`
				CapMilliwatts  float64 `json:"cap_milliwatts"`
				Throttled      bool    `json:"throttled"`
				Frequency      float64 `json:"frequency"`
				ThrottleEvents uint64  `json:"throttle_events_total"`
			} `json:"power"`
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.Power == nil || !st.Power.Enabled {
			t.Fatal("statusz has no power section despite -power-cap")
		}
		if st.Power.CapMilliwatts != 0.5 {
			t.Fatalf("cap = %v, want 0.5", st.Power.CapMilliwatts)
		}
		if st.Power.Throttled && st.Power.ThrottleEvents > 0 {
			if st.Power.Frequency > 1 {
				t.Fatalf("frequency %v > 1", st.Power.Frequency)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cap controller never throttled: %+v", st.Power)
		}
		time.Sleep(5 * time.Millisecond)
	}

	m := scrape(t, base)
	if v, ok := m["pcd_power_cap_milliwatts"]; !ok || v != 0.5 {
		t.Fatalf("pcd_power_cap_milliwatts = %v (present %v), want 0.5", v, ok)
	}
	if v := m["pcd_power_throttle_events_total"]; v < 1 {
		t.Fatalf("pcd_power_throttle_events_total = %v, want >= 1", v)
	}
	if v := m["pcd_power_throttled"]; v != 1 {
		t.Fatalf("pcd_power_throttled = %v, want 1", v)
	}
	if _, ok := m[`pcd_power_frequency{manager="0"}`]; !ok {
		t.Fatal("pcd_power_frequency{manager=\"0\"} missing")
	}
	if _, ok := m[`pcd_power_frequency{manager="1"}`]; !ok {
		t.Fatal("pcd_power_frequency{manager=\"1\"} missing")
	}

	sig <- syscall.SIGTERM
	if code := <-exit; code != 0 {
		t.Fatalf("exit code %d", code)
	}
}
