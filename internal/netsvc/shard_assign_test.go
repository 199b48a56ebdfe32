package netsvc

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/web"
)

// TestHotShardShedsAssignment exercises the load-aware accept
// re-weighting: a shard whose pending accept queue is deep must stop
// receiving new-conn assignment even though it is neither draining nor
// at its connection limit — and the pending depth must be over-weighted
// against active sessions, so a shard with many (possibly idle)
// keep-alive conns still beats a shard whose acceptor has fallen behind.
func TestHotShardShedsAssignment(t *testing.T) {
	m, err := ServeSharded(Config{Shards: 2, MaxConns: 8, IdleTimeout: time.Second},
		func(th *core.Thread, shard int) *web.Server {
			ws := web.NewServer(th)
			ws.Handle("/ping", func(_ *core.Thread, _ *web.Session, _ *web.Request) web.Response {
				return web.Response{Status: 200, Body: "pong"}
			})
			return ws
		})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown(time.Second)

	s0, s1 := m.shards[0].server(), m.shards[1].server()

	// Balanced fleet: round-robin visits both shards.
	seen := map[*shard]int{}
	for i := 0; i < 10; i++ {
		seen[m.pick()]++
	}
	if len(seen) != 2 {
		t.Fatalf("balanced fleet did not rotate: %d shards visited", len(seen))
	}

	// Make shard 0 hot: a deep pending queue (acceptor not keeping up).
	// Every new assignment must go to shard 1 — the draining flag is
	// down, so this is purely the load-aware score.
	s0.pendingN.Add(6)
	for i := 0; i < 20; i++ {
		if got := m.pick(); got != m.shards[1] {
			t.Fatalf("pick %d: hot shard 0 (pending=6) still assigned", i)
		}
	}

	// Re-weighting, not tie-breaking: shard 1 carries more raw
	// connections (5 active vs 0), but shard 0's queue depth of 6 scores
	// 6*pendingLoadWeight = 24 against shard 1's 5 — the backed-up
	// acceptor loses even to the busier-looking sibling.
	s1.stats.Active.Add(5)
	if s0.assignScore() <= s1.assignScore() {
		t.Fatalf("scores not re-weighted: s0=%d s1=%d", s0.assignScore(), s1.assignScore())
	}
	for i := 0; i < 20; i++ {
		if got := m.pick(); got != m.shards[1] {
			t.Fatalf("pick %d: deep-queue shard 0 preferred over active shard 1", i)
		}
	}

	// Queue drained: assignment balances again.
	s0.pendingN.Add(-6)
	s1.stats.Active.Add(-5)
	seen = map[*shard]int{}
	for i := 0; i < 10; i++ {
		seen[m.pick()]++
	}
	if len(seen) != 2 {
		t.Fatalf("recovered fleet did not rotate: %d shards visited", len(seen))
	}
}
