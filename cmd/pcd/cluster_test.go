package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// startClusterDaemon boots one pcd in-process with clustering enabled
// and returns its HTTP base URL, cluster wire address, signal channel,
// and exit channel.
func startClusterDaemon(t *testing.T, nodeID, seed string, extraArgs ...string) (httpBase, clusterAddr string, sig chan os.Signal, exit chan int) {
	t.Helper()
	addrFile := filepath.Join(t.TempDir(), "addr")
	args := append([]string{
		"-http", "127.0.0.1:0",
		"-addr-file", addrFile,
		"-slot", "2ms",
		"-latency", "10ms",
		"-buffer", "512",
		"-drain", "10s",
		"-node-id", nodeID,
		"-cluster-listen", "127.0.0.1:0",
		"-cluster-heartbeat", "20ms",
	}, extraArgs...)
	if seed != "" {
		args = append(args, "-cluster-seed", seed)
	}
	sig = make(chan os.Signal, 1)
	exit = make(chan int, 1)
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
			var h, c string
			for _, line := range strings.Split(string(raw), "\n") {
				if v, ok := strings.CutPrefix(line, "http="); ok {
					h = v
				}
				if v, ok := strings.CutPrefix(line, "cluster="); ok {
					c = v
				}
			}
			if h != "" && c != "" {
				return "http://" + h, c, sig, exit
			}
		}
		select {
		case code := <-exit:
			t.Fatalf("daemon exited early with %d; logs:\n%s", code, logs.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never published addresses; logs:\n%s", logs.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestClusterSmoke: two daemons, seeded a←b, converge to mutual alive
// membership; ingest through both lands every item; /statusz exposes
// the cluster section and /metrics the pcd_cluster_* families; both
// drain clean on SIGTERM.
func TestClusterSmoke(t *testing.T) {
	baseA, clusterA, sigA, exitA := startClusterDaemon(t, "a", "")
	baseB, _, sigB, exitB := startClusterDaemon(t, "b", "a@"+clusterA)

	// Convergence: each side reports the other alive.
	clusterz := func(base string) (map[string]any, bool) {
		resp, err := http.Get(base + "/statusz")
		if err != nil {
			return nil, false
		}
		defer resp.Body.Close()
		var st struct {
			Cluster map[string]any `json:"cluster"`
		}
		if json.NewDecoder(resp.Body).Decode(&st) != nil || st.Cluster == nil {
			return nil, false
		}
		return st.Cluster, true
	}
	peersAlive := func(base string) bool {
		cz, ok := clusterz(base)
		if !ok {
			return false
		}
		peers, _ := cz["peers"].([]any)
		if len(peers) != 1 {
			return false
		}
		p, _ := peers[0].(map[string]any)
		return p["state"] == "alive"
	}
	deadline := time.Now().Add(10 * time.Second)
	for !(peersAlive(baseA) && peersAlive(baseB)) {
		if time.Now().After(deadline) {
			t.Fatal("cluster membership never converged")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Ingest the same streams through both entry nodes: forwarding (or
	// local ownership) must accept every item.
	total := 0
	for i := 0; i < 6; i++ {
		stream := fmt.Sprintf("smoke-%d", i)
		for _, base := range []string{baseA, baseB} {
			resp, err := http.Post(base+"/ingest/"+stream, "text/plain",
				strings.NewReader("one\ntwo\nthree"))
			if err != nil {
				t.Fatal(err)
			}
			var r struct {
				Accepted int `json:"accepted"`
				Shed     int `json:"shed"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if r.Accepted != 3 || r.Shed != 0 {
				t.Fatalf("stream %s via %s: accepted %d shed %d", stream, base, r.Accepted, r.Shed)
			}
			total += r.Accepted
		}
	}
	if total != 36 {
		t.Fatalf("accepted %d want 36", total)
	}

	// The cluster metric families are exported.
	m := scrape(t, baseA)
	if _, ok := m[`pcd_cluster_peers{state="alive"}`]; !ok {
		t.Fatalf("pcd_cluster_peers missing from /metrics: %v", m)
	}
	if m[`pcd_cluster_leader`] != 1 { // "a" is the lowest id → leader
		t.Fatal("node a does not report itself leader")
	}

	// Clean SIGTERM drains on both.
	sigB <- syscall.SIGTERM
	if code := <-exitB; code != 0 {
		t.Fatalf("node b exit %d", code)
	}
	sigA <- syscall.SIGTERM
	if code := <-exitA; code != 0 {
		t.Fatalf("node a exit %d", code)
	}
}

// TestClusterFlagValidation: bad cluster flags fail fast with usage
// errors, not a half-started daemon.
func TestClusterFlagValidation(t *testing.T) {
	cases := [][]string{
		{"-cluster-listen", "127.0.0.1:0"},                                                            // missing -node-id
		{"-cluster-listen", "127.0.0.1:0", "-node-id", "a", "-cluster-seed", "junk"},                  // malformed seed
		{"-cluster-listen", "127.0.0.1:0", "-node-id", "a", "-fleet", "-fleet-node-budget", "b@zero"}, // bad budget
	}
	for _, args := range cases {
		if code := run(args, make(chan os.Signal, 1), io.Discard, io.Discard); code != 2 {
			t.Errorf("args %v: exit %d want 2", args, code)
		}
	}
}
