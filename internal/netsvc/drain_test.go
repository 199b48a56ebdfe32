package netsvc_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netsvc"
	"repro/internal/web"
)

// rawGet issues one HTTP/1.0 request on a fresh conn and returns the
// full raw response (the server closes the conn after answering).
func rawGet(addr, target string) (string, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return "", err
	}
	defer c.Close()
	_ = c.SetDeadline(time.Now().Add(30 * time.Second))
	if _, err := fmt.Fprintf(c, "GET %s HTTP/1.0\r\n\r\n", target); err != nil {
		return "", err
	}
	raw, err := io.ReadAll(c)
	return string(raw), err
}

// Adaptive admission end to end: a storm of slow requests on a one-slot
// server pushes queue sojourn past the target; normal traffic gets paced
// 503s with Retry-After, bulk is shed outright, and admin requests ride
// through the whole storm unshedded.
func TestAdmissionShedsUnderOverload(t *testing.T) {
	withRuntime(t, func(rt *core.Runtime, th *core.Thread) {
		ws := web.NewServer(th)
		ws.Handle("/work", func(x *core.Thread, _ *web.Session, _ *web.Request) web.Response {
			_ = core.Sleep(x, 10*time.Millisecond)
			return web.Response{Status: 200, Body: "done\n"}
		})
		s, err := netsvc.Serve(th, ws, netsvc.Config{
			MaxConns:      1,
			MaxPending:    -1, // unlimited queue: admission, not the cliff, must shed
			AdmitTarget:   time.Millisecond,
			AdmitInterval: 10 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		addr := s.Addr().String()

		var ok200, shed503, other atomic.Int64
		var sawRetryAfter atomic.Bool
		var wg sync.WaitGroup
		for w := 0; w < 20; w++ {
			target := "/work"
			if w%2 == 1 {
				target = "/work?class=bulk"
			}
			wg.Add(1)
			go func(target string) {
				defer wg.Done()
				for i := 0; i < 8; i++ {
					raw, err := rawGet(addr, target)
					switch {
					case err != nil:
						other.Add(1)
					case strings.HasPrefix(raw, "HTTP/1.1 200") || strings.HasPrefix(raw, "HTTP/1.0 200"):
						ok200.Add(1)
					case strings.Contains(raw, " 503 "):
						shed503.Add(1)
						if strings.Contains(raw, "Retry-After:") {
							sawRetryAfter.Store(true)
						}
					default:
						other.Add(1)
					}
				}
			}(target)
		}

		// Admin requests issued mid-storm must never be shed: they queue
		// like everyone else but admission always admits the class.
		adminDone := make(chan error, 1)
		go func() {
			for i := 0; i < 5; i++ {
				raw, err := rawGet(addr, "/debug/killsafe/stats")
				if err != nil {
					adminDone <- fmt.Errorf("admin get %d: %v", i, err)
					return
				}
				if !strings.Contains(raw, " 200 ") && !strings.Contains(raw, " 200\r\n") {
					adminDone <- fmt.Errorf("admin get %d not 200: %.80q", i, raw)
					return
				}
			}
			adminDone <- nil
		}()

		wg.Wait()
		if err := <-adminDone; err != nil {
			t.Fatal(err)
		}

		stats := s.Stats()
		if stats.AdmShed == 0 {
			t.Fatalf("admission never shed under a 20-worker storm: %+v", stats)
		}
		if stats.AdmShedBulk == 0 {
			t.Fatalf("no bulk request was shed: %+v", stats)
		}
		if shed503.Load() == 0 || !sawRetryAfter.Load() {
			t.Fatalf("clients saw %d shed responses (retry-after seen: %v), want >0 with Retry-After",
				shed503.Load(), sawRetryAfter.Load())
		}
		if ok200.Load() == 0 {
			t.Fatal("no request succeeded: admission shed everything")
		}
		if stats.ReqAdmin < 5 {
			t.Fatalf("admin class count = %d, want >= 5", stats.ReqAdmin)
		}
		if err := s.Shutdown(th, time.Second); err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
	})
}

// DrainShard under live traffic: the shard's runtime is replaced, no
// request fails, nothing is killed, and the fleet keeps serving.
func TestDrainShardUnderLoad(t *testing.T) {
	base := runtime.NumGoroutine()
	m, err := netsvc.ServeSharded(netsvc.Config{Shards: 2}, shardSetup)
	if err != nil {
		t.Fatalf("ServeSharded: %v", err)
	}
	addr := m.Addr().String()

	stop := make(chan struct{})
	var loadErrs atomic.Int64
	var served atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				status, _, err := get(addr, "/ping")
				if err != nil || !strings.Contains(status, "200") {
					loadErrs.Add(1)
					continue
				}
				served.Add(1)
			}
		}()
	}
	// Let the load establish, then drain shard 0 under it.
	for served.Load() < 20 {
		time.Sleep(time.Millisecond)
	}
	rt0 := m.Runtime(0)
	if err := m.DrainShard(0, 2*time.Second); err != nil {
		t.Fatalf("DrainShard: %v", err)
	}
	if m.Runtime(0) == rt0 {
		t.Fatal("DrainShard did not replace the shard's runtime")
	}
	// The replacement engine serves.
	before := served.Load()
	for served.Load() < before+20 {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()

	stats := m.Stats()
	if loadErrs.Load() != 0 {
		t.Fatalf("%d requests failed across the drain (stats %+v)", loadErrs.Load(), stats)
	}
	if stats.ShardsDrained != 1 {
		t.Fatalf("ShardsDrained = %d, want 1", stats.ShardsDrained)
	}
	if stats.Killed != 0 {
		t.Fatalf("drain killed %d sessions, want 0", stats.Killed)
	}
	// Served-work accounting survived the handoff: the folded totals
	// include everything the retired engine served.
	if stats.Responses < served.Load() {
		t.Fatalf("aggregate responses %d < client-observed %d: retired counters lost",
			stats.Responses, served.Load())
	}
	if err := m.Shutdown(time.Second); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	waitGoroutines(t, base, "after drain + shutdown")
}

// Repeated drains of the same shard: each replaces the previous
// replacement and the fleet aggregate counts every cycle.
func TestDrainShardRepeated(t *testing.T) {
	m, err := netsvc.ServeSharded(netsvc.Config{Shards: 2}, shardSetup)
	if err != nil {
		t.Fatalf("ServeSharded: %v", err)
	}
	addr := m.Addr().String()
	for i := 0; i < 3; i++ {
		if _, _, err := get(addr, "/ping"); err != nil {
			t.Fatalf("get before drain %d: %v", i, err)
		}
		if err := m.DrainShard(0, time.Second); err != nil {
			t.Fatalf("drain %d: %v", i, err)
		}
	}
	if got := m.Stats().ShardsDrained; got != 3 {
		t.Fatalf("ShardsDrained = %d, want 3", got)
	}
	if status, _, err := get(addr, "/ping"); err != nil || !strings.Contains(status, "200") {
		t.Fatalf("fleet not serving after repeated drains: %q %v", status, err)
	}
	// The in-band admin document must carry the same fleet-level facts:
	// the drains counter and the retired engines' folded counters (a
	// handoff must not make served work disappear from /debug/killsafe).
	raw, err := rawGet(addr, "/debug/killsafe/stats")
	if err != nil {
		t.Fatalf("admin stats after drains: %v", err)
	}
	if !strings.Contains(raw, `"shards_drained": 3`) {
		t.Fatalf("admin stats document lost the fleet drain count:\n%s", raw)
	}
	fleet := m.Stats()
	var admin struct {
		Serving netsvc.StatsSnapshot `json:"serving"`
	}
	if i := strings.Index(raw, "{"); i < 0 {
		t.Fatalf("no JSON body in admin stats response:\n%s", raw)
	} else if err := json.Unmarshal([]byte(raw[i:]), &admin); err != nil {
		t.Fatalf("decode admin stats: %v", err)
	}
	if admin.Serving.Requests < fleet.Requests-2 {
		t.Fatalf("admin document requests %d < fleet aggregate %d: retired counters lost",
			admin.Serving.Requests, fleet.Requests)
	}
	if err := m.Shutdown(time.Second); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// DrainShard validates its input and refuses after fleet shutdown.
func TestDrainShardErrors(t *testing.T) {
	m, err := netsvc.ServeSharded(netsvc.Config{Shards: 2}, shardSetup)
	if err != nil {
		t.Fatalf("ServeSharded: %v", err)
	}
	if err := m.DrainShard(-1, time.Second); err != netsvc.ErrBadShard {
		t.Fatalf("DrainShard(-1) = %v, want ErrBadShard", err)
	}
	if err := m.DrainShard(2, time.Second); err != netsvc.ErrBadShard {
		t.Fatalf("DrainShard(2) = %v, want ErrBadShard", err)
	}
	if err := m.Shutdown(time.Second); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := m.DrainShard(0, time.Second); err != netsvc.ErrServerDown {
		t.Fatalf("DrainShard after Shutdown = %v, want ErrServerDown", err)
	}
}

// A graceful Shutdown racing a DrainShard on the same fleet: whichever
// takes a shard first wins, the loser reports ErrServerDown (or the
// drain completes first and Shutdown tears down the replacement), no
// listener share is double-closed, and every goroutine is reclaimed.
func TestDrainShardShutdownRace(t *testing.T) {
	for round := 0; round < 5; round++ {
		base := runtime.NumGoroutine()
		m, err := netsvc.ServeSharded(netsvc.Config{Shards: 2}, shardSetup)
		if err != nil {
			t.Fatalf("round %d: ServeSharded: %v", round, err)
		}
		addr := m.Addr().String()
		// A little in-flight work so the race has sessions to classify.
		for i := 0; i < 4; i++ {
			if _, _, err := get(addr, "/ping"); err != nil {
				t.Fatalf("round %d: get: %v", round, err)
			}
		}
		drainErr := make(chan error, 1)
		shutErr := make(chan error, 1)
		go func() { drainErr <- m.DrainShard(0, time.Second) }()
		go func() {
			// Vary the interleaving across rounds.
			time.Sleep(time.Duration(round) * 500 * time.Microsecond)
			shutErr <- m.Shutdown(time.Second)
		}()
		de, se := <-drainErr, <-shutErr
		if de != nil && de != netsvc.ErrServerDown {
			t.Fatalf("round %d: DrainShard = %v, want nil or ErrServerDown", round, de)
		}
		if se != nil {
			t.Fatalf("round %d: Shutdown = %v, want nil", round, se)
		}
		// The race must not lose sessions to the kill path: every conn
		// above finished before the race began.
		if st := m.Stats(); st.Killed != 0 {
			t.Fatalf("round %d: race killed %d sessions: %+v", round, st.Killed, st)
		}
		if err := m.DrainShard(1, time.Second); err != netsvc.ErrServerDown {
			t.Fatalf("round %d: DrainShard after race = %v, want ErrServerDown", round, err)
		}
		waitGoroutines(t, base, "after drain/shutdown race")
	}
}

// Fleet totals never go backwards across a drain. A slow request on
// the drained shard holds its graceful stop open for the whole grace
// window; throughout, the old engine must count either as live or as
// folded into the retired totals — never as neither.
func TestFleetStatsMonotonicAcrossDrain(t *testing.T) {
	m, err := netsvc.ServeSharded(netsvc.Config{Shards: 2}, shardSetup)
	if err != nil {
		t.Fatalf("ServeSharded: %v", err)
	}
	defer m.Shutdown(0)
	addr := m.Addr().String()
	for i := 0; i < 8; i++ {
		if _, _, err := get(addr, "/ping"); err != nil {
			t.Fatalf("get: %v", err)
		}
	}
	// One slow session per shard: the assigner balances them.
	for i := 0; i < 2; i++ {
		c := dialSlow(t, addr)
		defer c.Close()
	}
	waitShardActive(t, m, 1)

	const grace = 300 * time.Millisecond
	done := make(chan error, 1)
	start := time.Now()
	go func() { done <- m.DrainShard(0, grace) }()
	prev := m.Stats()
	for polling := true; polling; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("DrainShard: %v", err)
			}
			polling = false
		default:
		}
		cur := m.Stats()
		pv, cv := reflect.ValueOf(prev), reflect.ValueOf(cur)
		for i := 0; i < pv.NumField(); i++ {
			name := pv.Type().Field(i).Name
			if pv.Field(i).Kind() != reflect.Int64 || name == "Active" || name == "SojournEWMAus" {
				continue // gauges may fall
			}
			if cv.Field(i).Int() < pv.Field(i).Int() {
				t.Fatalf("fleet %s went backwards during the drain: %d -> %d", name, pv.Field(i).Int(), cv.Field(i).Int())
			}
		}
		prev = cur
		time.Sleep(200 * time.Microsecond)
	}
	if took := time.Since(start); took < grace {
		t.Fatalf("drain took %v, shorter than its %v grace: the slow session did not hold it open", took, grace)
	}
	if prev.ShardsDrained != 1 {
		t.Fatalf("ShardsDrained = %d, want 1", prev.ShardsDrained)
	}
}
