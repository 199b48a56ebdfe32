package obs

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/explore"
)

// TestMetricsBalanceUnderKills checks the core accounting identity: a
// runtime that spawns, syncs, kills, and shuts down ends with
// spawns == dones (nothing leaks), exits == dones - kills, and the
// sync fast/multi split summing to the total.
func TestMetricsBalanceUnderKills(t *testing.T) {
	o := New()
	rt := core.NewRuntime()
	o.Attach(rt)

	const workers = 8
	const killed = 4
	err := rt.Run(func(th *core.Thread) {
		sem := core.NewSemaphore(rt, 0)
		var ths []*core.Thread
		for i := 0; i < workers; i++ {
			ths = append(ths, th.Spawn("worker", func(x *core.Thread) {
				_, _ = core.Sync(x, sem.WaitEvt())
			}))
		}
		// Wait until every worker is parked in its sync.
		deadline := time.Now().Add(5 * time.Second)
		for o.Snapshot().Blocks < workers && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		for i := 0; i < killed; i++ {
			ths[i].Kill()
		}
		for i := killed; i < workers; i++ {
			sem.Post()
		}
		for i := killed; i < workers; i++ {
			for !ths[i].Done() {
				time.Sleep(time.Millisecond)
			}
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	rt.Shutdown()

	s := o.Snapshot()
	if s.Spawns == 0 {
		t.Fatal("no spawns counted")
	}
	if s.Spawns != s.Dones {
		t.Fatalf("spawns (%d) != dones (%d) after shutdown", s.Spawns, s.Dones)
	}
	if s.LiveThreads != 0 {
		t.Fatalf("live_threads = %d after shutdown, want 0", s.LiveThreads)
	}
	if s.Kills < killed {
		t.Fatalf("kills = %d, want >= %d", s.Kills, killed)
	}
	if s.Exits != s.Dones-s.Kills {
		t.Fatalf("exits = %d, want dones-kills = %d", s.Exits, s.Dones-s.Kills)
	}
	if s.Syncs == 0 {
		t.Fatal("no syncs counted")
	}
	if s.SyncFast+s.SyncMulti != s.Syncs {
		t.Fatalf("sync split %d+%d != total %d", s.SyncFast, s.SyncMulti, s.Syncs)
	}
	// Runtime accounting must agree with the counters.
	if n := rt.LiveThreads(); int64(n) != s.LiveThreads {
		t.Fatalf("runtime reports %d live threads, counters say %d", n, s.LiveThreads)
	}
}

// TestAttachLiveRuntime: a passive instrumentation may be installed on a
// runtime that already has threads, and counters tick from then on.
func TestAttachLiveRuntime(t *testing.T) {
	rt := core.NewRuntime()
	defer rt.Shutdown()
	o := New()
	err := rt.Run(func(th *core.Thread) {
		o.Attach(rt) // th exists: this must not panic (det mode unchanged)
		done := th.Spawn("late", func(*core.Thread) {})
		for !done.Done() {
			time.Sleep(time.Millisecond)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if s := o.Snapshot(); s.Spawns == 0 || s.Dones == 0 {
		t.Fatalf("counters did not tick after live attach: %+v", s)
	}
}

func TestRecorderOverflowWraparound(t *testing.T) {
	r := NewRecorder(10) // rounds up to 16
	if r.Cap() != 16 {
		t.Fatalf("Cap = %d, want 16", r.Cap())
	}
	const total = 100
	for i := 0; i < total; i++ {
		r.record(EvRunnable, int64(i), 0)
	}
	if r.Recorded() != total {
		t.Fatalf("Recorded = %d, want %d", r.Recorded(), total)
	}
	snap := r.Snapshot()
	if len(snap) != 16 {
		t.Fatalf("Snapshot holds %d events, want the last 16", len(snap))
	}
	for i, e := range snap {
		wantSeq := uint64(total - 16 + i)
		if e.Seq != wantSeq || e.Thread != int64(wantSeq) {
			t.Fatalf("slot %d: seq=%d thread=%d, want seq=thread=%d (oldest-first after wrap)",
				i, e.Seq, e.Thread, wantSeq)
		}
		if e.Kind != EvRunnable {
			t.Fatalf("slot %d: kind %v", i, e.Kind)
		}
	}
}

// TestRecorderConcurrent hammers the ring from several writers while a
// reader snapshots continuously: no lock, no race (run under -race), no
// torn events — every surviving event must be internally consistent.
func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder(64)
	const writers = 4
	const perWriter = 5000
	stop := make(chan struct{})
	var rg sync.WaitGroup
	rg.Add(1)
	go func() {
		defer rg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, e := range r.Snapshot() {
				// Writer w writes (thread=w, arg=w): a torn slot would mix.
				if e.Thread != e.Arg {
					t.Errorf("torn event: thread=%d arg=%d", e.Thread, e.Arg)
					return
				}
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(id int64) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				r.record(EvSync, id, id)
			}
		}(int64(w))
	}
	wg.Wait()
	close(stop)
	rg.Wait()
	if got := r.Recorded(); got != writers*perWriter {
		t.Fatalf("Recorded = %d, want %d", got, writers*perWriter)
	}
}

// TestTraceTextDecodes: a recorded flight renders into the explore trace
// format and parses with the explore decoder, action lines and comments
// alike.
func TestTraceTextDecodes(t *testing.T) {
	r := NewRecorder(64)
	r.record(EvSpawn, 1, 0)
	r.record(EvRunnable, 1, 0)
	r.record(EvSync, 1, SyncArg(3, 1))
	r.record(EvKill, 2, 0)
	r.record(EvSuspend, 3, 0)
	r.record(EvResume, 3, 0)
	r.record(EvBreak, 4, 0)
	r.record(EvAlarm, 1, 0)
	r.record(EvShutdown, 7, 2)
	r.record(EvDone, 2, 0)

	text := r.TraceText("flight", 42)
	tr, err := explore.DecodeTrace(strings.NewReader(text))
	if err != nil {
		t.Fatalf("DecodeTrace: %v\n%s", err, text)
	}
	if tr.Scenario != "flight" || tr.Seed != 42 {
		t.Fatalf("header round-trip: scenario=%q seed=%d", tr.Scenario, tr.Seed)
	}
	// Action lines: r 1, k 2, s 3, u 3, b 4, c. Comments carry the rest.
	want := []explore.Action{
		{Kind: explore.ActRun, Thread: 1},
		{Kind: explore.ActKill, Thread: 2},
		{Kind: explore.ActSuspend, Thread: 3},
		{Kind: explore.ActResume, Thread: 3},
		{Kind: explore.ActBreak, Thread: 4},
		{Kind: explore.ActClock},
	}
	if len(tr.Actions) != len(want) {
		t.Fatalf("decoded %d actions, want %d:\n%s", len(tr.Actions), len(want), text)
	}
	for i, a := range tr.Actions {
		if a != want[i] {
			t.Fatalf("action %d = %+v, want %+v", i, a, want[i])
		}
	}
	cases, chosen := SyncShape(SyncArg(3, 1))
	if cases != 3 || chosen != 1 {
		t.Fatalf("SyncShape round-trip: (%d, %d)", cases, chosen)
	}
}
