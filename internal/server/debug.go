package server

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"

	"repro"
)

// registerDebug mounts the observability endpoints on the server's mux:
// the wakeup timeline (live Fig. 6), the latency distributions, and the
// standard net/http/pprof handlers (which a custom mux does not get for
// free). All of them are cheap, read-only snapshots; they are safe to
// leave enabled in production the same way the runtime options are.
func (s *Server) registerDebug(mux *http.ServeMux) {
	mux.HandleFunc("/debug/timeline", s.handleTimeline)
	mux.HandleFunc("/debug/latency", s.handleLatency)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// timelinez is the JSON shape of /debug/timeline: the surviving wakeup
// records in sequence order plus the ring geometry, so a reader can
// tell how much history the window covers and whether anything was
// overwritten (appended > len(records)).
type timelinez struct {
	// Enabled is false when the runtime was built without WithTimeline;
	// Records is then empty rather than an error, so dashboards can poll
	// unconditionally.
	Enabled bool `json:"enabled"`
	// Cap is the ring capacity: a dump never loses more history than
	// this (the documented loss bound).
	Cap int `json:"cap"`
	// Appended counts every record ever appended; Appended - len(Records)
	// have been overwritten.
	Appended uint64 `json:"appended"`
	// Records are the surviving events, ordered by Seq. A drain record's
	// wake field names the timer-fire/forced-wake Seq that triggered it:
	// several drains sharing one wake are latched onto one wakeup.
	Records []repro.TimelineRecord `json:"records"`
}

func (s *Server) handleTimeline(w http.ResponseWriter, r *http.Request) {
	out := timelinez{
		Cap:     s.rt.TimelineCap(),
		Records: s.rt.TimelineDump(),
	}
	out.Enabled = out.Cap > 0
	if out.Records == nil {
		out.Records = []repro.TimelineRecord{}
	}
	if len(out.Records) > 0 {
		out.Appended = out.Records[len(out.Records)-1].Seq
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(out)
}

// latencyz is the JSON shape of /debug/latency.
type latencyz struct {
	Enabled  bool                     `json:"enabled"`
	Pairs    []pairLatencyz           `json:"pairs"`
	Managers []repro.ManagerLatencies `json:"managers"`
	Wait     repro.LatencyDist        `json:"wait_total"`
	Done     repro.LatencyDist        `json:"done_total"`
}

// pairLatencyz joins a pair's distributions with its stream key so the
// endpoint reads in the same vocabulary as /metrics and /statusz.
type pairLatencyz struct {
	Key string `json:"key,omitempty"`
	repro.PairLatencies
}

func (s *Server) handleLatency(w http.ResponseWriter, r *http.Request) {
	wait, done, ok := s.rt.LatencyTotals()
	out := latencyz{Enabled: ok, Wait: wait, Done: done}
	if ok {
		keys := s.streamKeysByPair()
		for _, pl := range s.rt.PairLatencies() {
			out.Pairs = append(out.Pairs, pairLatencyz{Key: keys[pl.ID], PairLatencies: pl})
		}
		out.Managers = s.rt.ManagerLatencies()
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(out)
}

// streamKeysByPair maps pair id → stream key for the streams this
// server owns (embedding programs may run pairs the server never sees).
func (s *Server) streamKeysByPair() map[int]string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[int]string, len(s.streams))
	for _, st := range s.streams {
		out[st.pair.ID()] = st.key
	}
	return out
}
