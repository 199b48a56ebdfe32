package netsvc

import (
	"encoding/json"
	"fmt"
	"strconv"

	"repro/internal/core"
	"repro/internal/obs"
)

// Admin surface: /debug/stats and the /debug/killsafe/* routes, served
// by every session thread (see serveConn's dispatch) and reusable by an
// out-of-band HTTP mux (cmd/killserve's -admin listener). All renderers read atomic
// counters or take per-runtime snapshots; none of them is a hot path.

// adminShardStats is one engine's books: one shard's slice of the stats
// document, and the unit the fleet totals fold.
type adminShardStats struct {
	Shard   int           `json:"shard"`
	Serving StatsSnapshot `json:"serving"`
	Runtime *obs.Snapshot `json:"runtime,omitempty"` // nil under DisableObs
	Live    int           `json:"live_threads"`      // runtime accounting, not counters
	sv      *Server       // the engine, for renderers that need more than counters
}

// adminStats is the /debug/killsafe/stats document: fleet totals plus
// the per-shard breakdown (a standalone server is a one-shard fleet).
type adminStats struct {
	Shards   int               `json:"shards"`
	Serving  StatsSnapshot     `json:"serving"`
	Runtime  *obs.Snapshot     `json:"runtime,omitempty"`
	PerShard []adminShardStats `json:"per_shard"`
}

// add folds one engine's books into the document's totals.
func (d *adminStats) add(e adminShardStats) {
	d.Serving = obs.Fold(d.Serving, e.Serving)
	if e.Runtime != nil {
		var agg obs.Snapshot
		if d.Runtime != nil {
			agg = *d.Runtime
		}
		agg = obs.Fold(agg, *e.Runtime)
		d.Runtime = &agg
	}
}

// books reads this engine's own counters.
func (s *Server) books() adminShardStats {
	e := adminShardStats{Shard: s.shard, Serving: s.Stats(), Live: s.rt.LiveThreads(), sv: s}
	if s.obs != nil {
		snap := s.obs.Snapshot()
		e.Runtime = &snap
	}
	return e
}

// fleetStats reads the books of the fleet s belongs to, and is the one
// place that decides which engines count toward fleet totals: every live
// engine, plus the fold of the engines drains retired. A standalone
// server is a one-engine fleet. Shards are walked under m.mu, the lock
// DrainShard retires and folds an engine under, so each engine counts
// exactly once — live or folded, never both and never neither.
func (s *Server) fleetStats() adminStats {
	engines, doc := []*Server{s}, adminStats{Shards: 1}
	if m := s.sharded; m != nil {
		m.mu.Lock()
		defer m.mu.Unlock()
		engines, doc = nil, m.retired
		doc.Shards = len(m.shards)
		for _, sh := range m.shards {
			if !sh.retired.Load() {
				engines = append(engines, sh.server())
			}
		}
	}
	for _, sv := range engines {
		e := sv.books()
		doc.add(e)
		doc.PerShard = append(doc.PerShard, e)
	}
	return doc
}

// AdminStatsJSON renders the /debug/killsafe/stats document.
func (s *Server) AdminStatsJSON() string { return marshalAdmin(s.fleetStats()) }

// adminCustodians is the /debug/killsafe/custodians document: the live
// custodian tree of each runtime, straight from runtime accounting.
type adminCustodians struct {
	Shard      int                  `json:"shard"`
	Custodians []core.CustodianInfo `json:"custodians"`
}

// AdminCustodiansJSON renders the /debug/killsafe/custodians document.
func (s *Server) AdminCustodiansJSON() string {
	out := []adminCustodians{}
	for _, e := range s.fleetStats().PerShard {
		out = append(out, adminCustodians{Shard: e.Shard, Custodians: e.sv.rt.CustodianSnapshot()})
	}
	return marshalAdmin(out)
}

// AdminTraceText renders shard's flight recorder in the explore trace
// format (shard -1 means this server's own). It returns ok=false if the
// flight recorder is not enabled (or the shard index is out of range).
func (s *Server) AdminTraceText(shard int) (string, bool) {
	sv := s
	if shard >= 0 {
		if s.sharded == nil {
			if shard != s.shard {
				return "", false
			}
		} else {
			if shard >= s.sharded.NumShards() {
				return "", false
			}
			sv = s.sharded.Shard(shard)
		}
	}
	if sv.obs == nil {
		return "", false
	}
	rec := sv.obs.Recorder()
	if rec == nil {
		return "", false
	}
	return rec.TraceText(fmt.Sprintf("netsvc-shard-%d", sv.shard), 0), true
}

// adminDispatch answers /debug/stats (the serving section of the stats
// document) and the /debug/killsafe/* routes; ok=false means the path is
// not an admin route.
func (s *Server) adminDispatch(path string, query map[string]string) (status int, body string, ok bool) {
	switch path {
	case "/debug/stats":
		body, _ := json.Marshal(s.fleetStats().Serving) // flat ints, bools and a string: cannot fail
		return 200, string(body) + "\n", true
	case "/debug/killsafe/stats":
		return 200, s.AdminStatsJSON() + "\n", true
	case "/debug/killsafe/custodians":
		return 200, s.AdminCustodiansJSON() + "\n", true
	case "/debug/killsafe/trace":
		shard := -1
		if v, have := query["shard"]; have {
			if n, err := strconv.Atoi(v); err == nil {
				shard = n
			}
		}
		text, found := s.AdminTraceText(shard)
		if !found {
			return 404, "flight recorder not enabled (set Config.FlightRecorder)\n", true
		}
		return 200, text, true
	}
	return 0, "", false
}

func marshalAdmin(v any) string {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Sprintf(`{"error":%q}`, err.Error())
	}
	return string(b)
}

// PublishExpvar exposes the runtime metrics of every shard this server
// belongs to as expvar variables "name.shardN" (for /debug/vars on a
// plain HTTP mux). With obs disabled it is a no-op.
func (s *Server) PublishExpvar(name string) {
	for _, e := range s.fleetStats().PerShard {
		if o := e.sv.obs; o != nil {
			obs.PublishExpvarFunc(fmt.Sprintf("%s.shard%d", name, e.Shard), func() any { return o.Snapshot() })
		}
	}
}

// PublishExpvar exposes the fleet's per-shard runtime metrics as expvar
// variables "name.shardN". With obs disabled it is a no-op.
func (m *ShardedServer) PublishExpvar(name string) {
	m.Shard(0).PublishExpvar(name)
}

// Obs returns shard i's observability layer (nil under DisableObs).
// After a DrainShard the layer belongs to the replacement engine.
func (m *ShardedServer) Obs(i int) *obs.Obs { return m.shards[i].server().obs }

// ObsSnapshot returns the fleet-wide aggregate of the per-shard runtime
// metrics (the zero snapshot under DisableObs), including the folded
// totals of engines retired by drains.
func (m *ShardedServer) ObsSnapshot() obs.Snapshot {
	if agg := m.Shard(0).fleetStats().Runtime; agg != nil {
		return *agg
	}
	return obs.Snapshot{}
}
