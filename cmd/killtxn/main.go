// Command killtxn sweeps the kill-safe transactional KV store
// (abstractions/kvtxn) across a contention grid — cores × Zipf theta ×
// read-rate × kill-rate × commit-strategy — with a killer thread
// terminating workers mid-transaction at the configured rate, and emits
// the results as BENCH_txn.json.
//
// Every cell runs a sum-preserving transfer workload (plus read-only
// transactions at the read-rate), so the store's kill-safety claims are
// checked as oracles on every row: after the storm the store must audit
// clean (wedged_locks == 0: no stuck lock, parked waiter, prepare stash,
// or leaked registry entry) and the account sum must be exact
// (half_commits == 0: no kill landed between the two halves of a
// transfer). A hot-key phase knob rotates which keys are hot mid-run, so
// the lock tables churn instead of reaching a steady state.
//
// The process exits nonzero if any cell violates an oracle.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/abstractions/kvtxn"
	"repro/internal/core"
)

type cellConfig struct {
	strategy kvtxn.Strategy
	cores    int
	theta    float64
	readRate float64
	killRate int // worker kills per second; 0 = no killer
}

type cellRow struct {
	Strategy      string  `json:"strategy"`
	Cores         int     `json:"cores"`
	Theta         float64 `json:"theta"`
	ReadRate      float64 `json:"read_rate"`
	KillRate      int     `json:"kill_rate"`
	DurationMs    int64   `json:"duration_ms"`
	Txns          int64   `json:"txns"`
	Commits       int64   `json:"commits"`
	Aborts        int64   `json:"aborts"`
	KillAborts    int64   `json:"kill_aborts"`
	Kills         int     `json:"kills"`
	ThroughputTPS float64 `json:"throughput_tps"` // committed txns per second
	WedgedLocks   int     `json:"wedged_locks"`   // audit residue after quiesce
	SumDelta      int     `json:"sum_delta"`      // final sum minus expected
	HalfCommits   int     `json:"half_commits"`   // 1 if sum_delta != 0
}

type report struct {
	Suite       string         `json:"suite"`
	Description string         `json:"description"`
	Recorded    string         `json:"recorded"`
	Environment map[string]any `json:"environment"`
	Cells       []cellRow      `json:"cells"`
}

// zipfGen is the YCSB-style Zipfian key-rank generator: rank 0 is the
// hottest key, with skew theta in [0, 1). theta == 0 is uniform.
type zipfGen struct {
	n                 int
	theta             float64
	alpha, zetan, eta float64
	half              float64
}

func newZipf(n int, theta float64) *zipfGen {
	z := &zipfGen{n: n, theta: theta}
	if theta == 0 {
		return z
	}
	zeta := func(k int) float64 {
		s := 0.0
		for i := 1; i <= k; i++ {
			s += 1 / math.Pow(float64(i), theta)
		}
		return s
	}
	z.zetan = zeta(n)
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta(2)/z.zetan)
	z.half = math.Pow(0.5, theta)
	return z
}

func (z *zipfGen) draw(r *rand.Rand) int {
	if z.theta == 0 {
		return r.Intn(z.n)
	}
	u := r.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+z.half {
		return 1
	}
	idx := int(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if idx >= z.n {
		idx = z.n - 1
	}
	return idx
}

func main() {
	var (
		out      = flag.String("out", "BENCH_txn.json", "output file")
		dur      = flag.Duration("dur", 250*time.Millisecond, "per-cell run duration")
		quick    = flag.Bool("quick", false, "run a single smoke cell instead of the full sweep")
		nKeys    = flag.Int("keys", 48, "accounts per cell")
		nWorkers = flag.Int("workers", 8, "worker threads per cell")
		hotPhase = flag.Duration("hotphase", 50*time.Millisecond, "hot-key rotation period (0 disables)")
		seed     = flag.Int64("seed", 1, "root rng seed")
	)
	flag.Parse()

	cells := sweepGrid()
	if *quick {
		cells = []cellConfig{{strategy: kvtxn.Locking, cores: 1, theta: 0.9, readRate: 0.5, killRate: 50}}
	}

	prevProcs := goruntime.GOMAXPROCS(0)
	defer goruntime.GOMAXPROCS(prevProcs)

	rows := make([]cellRow, 0, len(cells))
	bad := 0
	for i, c := range cells {
		row := runCell(c, *dur, *nKeys, *nWorkers, *hotPhase, *seed+int64(i))
		rows = append(rows, row)
		status := "ok"
		if row.WedgedLocks != 0 || row.HalfCommits != 0 {
			status = "INTEGRITY VIOLATION"
			bad++
		}
		fmt.Fprintf(os.Stderr,
			"[%2d/%d] %-4s cores=%d theta=%.1f read=%.1f kill=%d: %6.0f tps commits=%d aborts=%d killAborts=%d kills=%d wedged=%d sumΔ=%d %s\n",
			i+1, len(cells), row.Strategy, row.Cores, row.Theta, row.ReadRate, row.KillRate,
			row.ThroughputTPS, row.Commits, row.Aborts, row.KillAborts, row.Kills,
			row.WedgedLocks, row.SumDelta, status)
	}
	goruntime.GOMAXPROCS(prevProcs)

	rep := report{
		Suite:       "kvtxn-contention",
		Description: "E22: kill-safe transactional KV store (abstractions/kvtxn) contention sweep. One cell = a fresh store and runtime running sum-preserving transfer transactions (2 keys drawn from a Zipfian over the account space, hot range rotated every hotphase) plus read-only transactions at read_rate, while a killer terminates worker threads mid-transaction at kill_rate per second and spawns replacements. Oracles per cell after quiescence: wedged_locks (audit residue: stuck locks, parked waiters, prepare stashes, leaked registry entries) and half_commits (account sum drift) must both be zero — a kill either commits a whole transfer or none of it.",
		Recorded:    time.Now().Format("2006-01-02"),
		Environment: map[string]any{
			"goos":    goruntime.GOOS,
			"goarch":  goruntime.GOARCH,
			"cpus":    goruntime.NumCPU(),
			"go":      goruntime.Version(),
			"command": fmt.Sprintf("go run ./cmd/killtxn -dur %s -keys %d -workers %d -hotphase %s (quick=%v)", *dur, *nKeys, *nWorkers, *hotPhase, *quick),
		},
		Cells: rows,
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "marshal:", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "write:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "%d cells -> %s\n", len(rows), *out)
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "FAIL: %d cells violated kill-safety oracles\n", bad)
		os.Exit(1)
	}
}

func sweepGrid() []cellConfig {
	coresAxis := []int{1}
	if n := goruntime.NumCPU(); n > 1 {
		coresAxis = append(coresAxis, n)
	}
	var cells []cellConfig
	for _, strat := range []kvtxn.Strategy{kvtxn.Locking, kvtxn.OCC} {
		for _, cores := range coresAxis {
			for _, theta := range []float64{0, 0.6, 0.9} {
				for _, readRate := range []float64{0, 0.5} {
					for _, killRate := range []int{0, 50} {
						cells = append(cells, cellConfig{
							strategy: strat, cores: cores, theta: theta,
							readRate: readRate, killRate: killRate,
						})
					}
				}
			}
		}
	}
	return cells
}

const initialBalance = 1000

func runCell(cfg cellConfig, dur time.Duration, nKeys, nWorkers int, hotPhase time.Duration, seed int64) cellRow {
	goruntime.GOMAXPROCS(cfg.cores)
	row := cellRow{
		Strategy:   cfg.strategy.String(),
		Cores:      cfg.cores,
		Theta:      cfg.theta,
		ReadRate:   cfg.readRate,
		KillRate:   cfg.killRate,
		DurationMs: dur.Milliseconds(),
	}
	root := rand.New(rand.NewSource(seed))
	zip := newZipf(nKeys, cfg.theta)

	rt := core.NewRuntime()
	defer rt.Shutdown()
	err := rt.Run(func(th *core.Thread) {
		s := kvtxn.NewWith(th, kvtxn.Options{
			Strategy: cfg.strategy,
			Shards:   8,
			LockWait: 5 * time.Millisecond,
		})
		keys := make([]string, nKeys)
		for i := range keys {
			keys[i] = fmt.Sprintf("acct%04d", i)
			if err := s.Put(th, keys[i], itoa(initialBalance)); err != nil {
				panic(fmt.Sprintf("seed put: %v", err))
			}
		}

		var (
			stop  atomic.Bool
			phase atomic.Int64
			txns  atomic.Int64
			mu    sync.Mutex
			live  []*core.Thread // current workers, killer victim pool
			all   []*core.Thread // every thread ever spawned, for the final wait
		)
		pickKey := func(r *rand.Rand) string {
			return keys[(zip.draw(r)+int(phase.Load()))%nKeys]
		}
		workerBody := func(wseed int64) func(*core.Thread) {
			return func(x *core.Thread) {
				r := rand.New(rand.NewSource(wseed))
				for !stop.Load() {
					txns.Add(1)
					if r.Float64() < cfg.readRate {
						readOnly(x, s, pickKey(r), pickKey(r))
						continue
					}
					a, b := pickKey(r), pickKey(r)
					if a == b {
						continue
					}
					transfer(x, s, a, b, 1+r.Intn(5))
				}
			}
		}
		spawnWorker := func(sp *core.Thread) *core.Thread {
			w := sp.Spawn("killtxn-worker", workerBody(root.Int63()))
			return w
		}
		mu.Lock()
		for i := 0; i < nWorkers; i++ {
			w := spawnWorker(th)
			live = append(live, w)
			all = append(all, w)
		}
		mu.Unlock()

		var rotator, killer *core.Thread
		if hotPhase > 0 {
			rotator = th.Spawn("killtxn-rotator", func(x *core.Thread) {
				for !stop.Load() {
					if core.Sleep(x, hotPhase) != nil {
						return
					}
					phase.Add(int64(nKeys / 4))
				}
			})
		}
		kills := 0
		if cfg.killRate > 0 {
			interval := time.Second / time.Duration(cfg.killRate)
			kseed := root.Int63()
			killer = th.Spawn("killtxn-killer", func(x *core.Thread) {
				kr := rand.New(rand.NewSource(kseed))
				for !stop.Load() {
					if core.Sleep(x, interval) != nil {
						return
					}
					mu.Lock()
					if len(live) == 0 {
						mu.Unlock()
						continue
					}
					i := kr.Intn(len(live))
					victim := live[i]
					// Replace the dead worker so throughput pressure holds.
					w := spawnWorker(x)
					live[i] = w
					all = append(all, w)
					kills++
					mu.Unlock()
					victim.Kill()
				}
			})
		}

		deadline := time.Now().Add(dur)
		for time.Now().Before(deadline) {
			_ = core.Sleep(th, 5*time.Millisecond)
		}
		stop.Store(true)
		mu.Lock()
		waitFor := append([]*core.Thread(nil), all...)
		mu.Unlock()
		for _, w := range waitFor {
			_, _ = core.Sync(th, w.DoneEvt())
		}
		if rotator != nil {
			_, _ = core.Sync(th, rotator.DoneEvt())
		}
		if killer != nil {
			_, _ = core.Sync(th, killer.DoneEvt())
		}

		// Quiesce: death-watch aborters may still be reclaiming locks.
		wedged := -1
		quiesceBy := time.Now().Add(10 * time.Second)
		for {
			a, err := s.Audit(th)
			if err != nil {
				break
			}
			wedged = a.HeldLocks + a.WaitingReqs + a.PreparedTxns + a.LiveTxns
			if wedged == 0 || time.Now().After(quiesceBy) {
				break
			}
			_ = core.Sleep(th, time.Millisecond)
		}

		sum := 0
		for _, k := range keys {
			v, found, err := s.Get(th, k)
			if err != nil || !found {
				sum = -1 << 30
				break
			}
			n := 0
			fmt.Sscanf(v, "%d", &n)
			sum += n
		}

		c := s.Counters()
		row.Txns = txns.Load()
		row.Commits = c.Commits
		row.Aborts = c.Aborts
		row.KillAborts = c.KillAborts
		row.Kills = kills
		row.ThroughputTPS = float64(c.Commits) / dur.Seconds()
		row.WedgedLocks = wedged
		row.SumDelta = sum - nKeys*initialBalance
		if row.SumDelta != 0 {
			row.HalfCommits = 1
		}
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "cell run: %v\n", err)
		row.WedgedLocks = -1
	}
	return row
}

func itoa(n int) string { return fmt.Sprintf("%d", n) }

// transfer moves amount from a to b in one transaction; conflicts abort
// cleanly and the worker moves on.
func transfer(x *core.Thread, s *kvtxn.Store, a, b string, amount int) {
	tx, err := s.Begin(x)
	if err != nil {
		return
	}
	av, okA, errA := tx.Get(x, a)
	bv, okB, errB := tx.Get(x, b)
	if errA != nil || errB != nil || !okA || !okB {
		_ = tx.Abort(x)
		return
	}
	var an, bn int
	fmt.Sscanf(av, "%d", &an)
	fmt.Sscanf(bv, "%d", &bn)
	_ = tx.Put(a, itoa(an-amount))
	_ = tx.Put(b, itoa(bn+amount))
	_ = tx.Commit(x)
}

// readOnly reads two keys in one transaction and commits.
func readOnly(x *core.Thread, s *kvtxn.Store, a, b string) {
	tx, err := s.Begin(x)
	if err != nil {
		return
	}
	if _, _, err := tx.Get(x, a); err != nil {
		_ = tx.Abort(x)
		return
	}
	if _, _, err := tx.Get(x, b); err != nil {
		_ = tx.Abort(x)
		return
	}
	_ = tx.Commit(x)
}
