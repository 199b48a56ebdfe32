package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/abstractions/kvtxn"
	"repro/internal/core"
	"repro/internal/obs"
)

// txn-kill: one runtime, kvtxn.NewWith(Locking, 8 shards), nproc worker
// threads in a closed loop of two-key transactions over Zipf-distributed
// accounts, half transfers and half read-only, while a killer thread kills
// a random worker at a fixed rate and spawns its replacement.

const (
	txnAccounts  = 64
	txnBalance   = 1000
	txnTheta     = 0.9
	txnKillRate  = 50   // kills per second
	txnRotate    = 2000 // a worker's hot range moves every txnRotate transactions
	txnSetupReps = 20
)

// zipf draws ranks in [0, n) with P(rank i) proportional to 1/(i+1)^theta,
// theta in (0, 1): Gray et al.'s method, as YCSB uses it.
type zipf struct {
	n                        int
	theta, alpha, zetan, eta float64
}

func newZipf(n int, theta float64) *zipf {
	zeta := func(k int) float64 {
		s := 0.0
		for i := 1; i <= k; i++ {
			s += 1 / math.Pow(float64(i), theta)
		}
		return s
	}
	z := &zipf{n: n, theta: theta, zetan: zeta(n), alpha: 1 / (1 - theta)}
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta(2)/z.zetan)
	return z
}

func (z *zipf) draw(r *rand.Rand) int {
	uz := r.Float64() * z.zetan
	switch {
	case uz < 1:
		return 0
	case uz < 1+math.Pow(0.5, z.theta):
		return 1
	}
	i := int(float64(z.n) * math.Pow(z.eta*(uz/z.zetan)-z.eta+1, z.alpha))
	if i >= z.n {
		i = z.n - 1
	}
	return i
}

func acctName(i int) string { return "acct" + strconv.Itoa(1000+i) }

// txnWorker is one worker thread's input stream and tally. Only its own
// thread writes it; the driver reads it after the thread is done.
type txnWorker struct {
	rng   *rand.Rand
	z     *zipf
	keys  []string
	lane  *lane
	start time.Time // the storm's start: commits are stamped from it

	started, committed, conflicts, errs int64
	commits                             []commit
}

// commit is one committed transaction: when it committed, from the
// storm's start, and how long it took from Begin.
type commit struct{ at, d time.Duration }

func (w *txnWorker) pick() int {
	shift := int(w.started/txnRotate) * (txnAccounts / 4)
	return (w.z.draw(w.rng) + shift) % txnAccounts
}

func (w *txnWorker) run(x *core.Thread, s *kvtxn.Store, stop *atomic.Bool) {
	for !stop.Load() {
		a, b := w.pick(), w.pick()
		for a == b {
			b = w.pick()
		}
		if a > b { // every transaction locks in ascending key order: no deadlock
			a, b = b, a
		}
		readOnly := w.rng.Intn(2) == 0
		amount := 1 + w.rng.Intn(5)
		op := uint64(w.started)
		w.started++
		t0 := time.Now()
		w.lane.begin("txn", op)
		err := w.txn(x, s, op, w.keys[a], w.keys[b], readOnly, amount)
		w.lane.end()
		switch {
		case err == nil:
			w.committed++
			now := time.Now()
			w.commits = append(w.commits, commit{now.Sub(w.start), now.Sub(t0)})
		case errors.Is(err, kvtxn.ErrConflict):
			w.conflicts++
		default:
			w.errs++
		}
	}
}

func (w *txnWorker) txn(x *core.Thread, s *kvtxn.Store, op uint64, a, b string, readOnly bool, amount int) error {
	w.lane.begin("kvtxn.begin", op)
	tx, err := s.Begin(x)
	w.lane.end()
	if err != nil {
		return err
	}
	var vals [2]int
	for i, k := range [2]string{a, b} {
		w.lane.begin("kvtxn.get", op)
		v, found, err := tx.Get(x, k)
		w.lane.end()
		if err == nil && !found {
			err = fmt.Errorf("account %s missing", k)
		}
		if err != nil {
			_ = tx.Abort(x) // the transaction is already lost; Abort only releases it
			return err
		}
		if vals[i], err = strconv.Atoi(v); err != nil {
			_ = tx.Abort(x)
			return fmt.Errorf("account %s: %w", k, err)
		}
	}
	if !readOnly {
		w.lane.begin("kvtxn.put", op)
		err := errors.Join(tx.Put(a, strconv.Itoa(vals[0]-amount)), tx.Put(b, strconv.Itoa(vals[1]+amount)))
		w.lane.end()
		if err != nil {
			_ = tx.Abort(x)
			return err
		}
	}
	w.lane.begin("kvtxn.commit", op)
	err = tx.Commit(x)
	w.lane.end()
	return err
}

// storm is one run of workers and killer over d.
type storm struct {
	mu                         sync.Mutex // guards the tallies workers fold in
	dur                        time.Duration
	kills                      int
	committed, conflicts, errs int64
	lat                        latencies
	commits                    counts
}

func runStorm(th *core.Thread, s *kvtxn.Store, keys []string, rng *rand.Rand, d time.Duration, tr *tracer) (*storm, error) {
	nproc := runtime.GOMAXPROCS(0)
	var (
		stop atomic.Bool
		mu   sync.Mutex // guards live and the rng's use by the killer
		live []*core.Thread
	)
	z := newZipf(txnAccounts, txnTheta)
	start := time.Now()
	st := &storm{dur: d, lat: newLatencies(d), commits: newCounts(d)}
	spawn := func(from *core.Thread) *core.Thread {
		w := &txnWorker{rng: rand.New(rand.NewSource(rng.Int63())), z: z, keys: keys, start: start}
		if tr != nil {
			w.lane = tr.lane()
		}
		t := from.Spawn("perfbench-worker", func(x *core.Thread) {
			defer st.fold(w) // also runs as a kill unwinds the thread
			w.run(x, s, &stop)
		})
		return t
	}
	mu.Lock()
	for i := 0; i < nproc; i++ {
		live = append(live, spawn(th))
	}
	mu.Unlock()
	killSeed := rng.Int63()
	killer := th.Spawn("perfbench-killer", func(x *core.Thread) {
		kr := rand.New(rand.NewSource(killSeed))
		for !stop.Load() {
			if core.Sleep(x, time.Second/txnKillRate) != nil {
				return
			}
			mu.Lock()
			i := kr.Intn(len(live))
			victim := live[i]
			live[i] = spawn(x)
			st.kills++
			mu.Unlock()
			victim.Kill()
			if _, err := core.Sync(x, victim.DoneEvt()); err != nil {
				return
			}
		}
	})
	if err := core.Sleep(th, d-time.Since(start)); err != nil {
		return nil, err
	}
	stop.Store(true)
	st.dur = time.Since(start)
	if _, err := core.Sync(th, killer.DoneEvt()); err != nil {
		return nil, err
	}
	for _, t := range live { // the killer is done: live is stable
		if _, err := core.Sync(th, t.DoneEvt()); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// fold adds a finished worker's tallies to the storm.
func (st *storm) fold(w *txnWorker) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.committed += w.committed
	st.conflicts += w.conflicts
	st.errs += w.errs
	for _, c := range w.commits {
		st.lat.add(c.at, c.d)
		st.commits.add(c.at)
	}
	w.lane.release()
}

// auditTxn waits for the death-watch aborters to reclaim every killed
// worker's locks, then checks that the store holds nothing and that the
// transfers preserved the account total.
func auditTxn(th *core.Thread, s *kvtxn.Store, keys []string) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		a, err := s.Audit(th)
		if err != nil {
			return fmt.Errorf("audit: %w", err)
		}
		left := a.HeldLocks + a.WaitingReqs + a.PreparedTxns + a.LiveTxns
		if left == 0 {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("audit after quiescence: %+v", a)
		}
		if err := core.Sleep(th, time.Millisecond); err != nil {
			return err
		}
	}
	sum := 0
	for _, k := range keys {
		v, found, err := s.Get(th, k)
		if err != nil || !found {
			return fmt.Errorf("account %s unreadable: found=%v err=%v", k, found, err)
		}
		n, err := strconv.Atoi(v)
		if err != nil {
			return fmt.Errorf("account %s: %w", k, err)
		}
		sum += n
	}
	if want := txnAccounts * txnBalance; sum != want {
		return fmt.Errorf("account total %d, want %d: a transfer committed half", sum, want)
	}
	return nil
}

// buildStore creates and seeds the store: the workload's set-up.
func buildStore(th *core.Thread) (*kvtxn.Store, []string, error) {
	s := kvtxn.NewWith(th, kvtxn.Options{Strategy: kvtxn.Locking, Shards: 8})
	keys := make([]string, txnAccounts)
	for i := range keys {
		keys[i] = acctName(i)
		if err := s.Put(th, keys[i], strconv.Itoa(txnBalance)); err != nil {
			return nil, nil, fmt.Errorf("seed %s: %w", keys[i], err)
		}
	}
	return s, keys, nil
}

func runTxnKill(rc runConfig) *outcome {
	o := newOutcome()
	o.params["workers"] = runtime.GOMAXPROCS(0)
	o.params["store"] = "kvtxn.Locking, 8 shards, default LockWait"
	o.params["accounts"] = txnAccounts
	o.params["zipf_theta"] = txnTheta
	o.params["hot_range_shift"] = fmt.Sprintf("%d accounts every %d transactions per worker", txnAccounts/4, txnRotate)
	o.params["read_only_share"] = 0.5
	o.params["kill_rate_per_s"] = txnKillRate

	var setups []float64
	for i := 0; i < txnSetupReps-1; i++ {
		t0 := time.Now()
		rt := core.NewRuntime()
		err := rt.Run(func(th *core.Thread) {
			_, _, err := buildStore(th)
			if err != nil {
				o.fail("%v", err)
			}
		})
		setups = append(setups, time.Since(t0).Seconds())
		rt.Shutdown()
		if err != nil {
			o.fail("set-up run: %v", err)
		}
	}
	if len(o.errs) > 0 {
		return o
	}

	t0 := time.Now()
	rt := core.NewRuntime()
	defer rt.Shutdown()
	err := rt.Run(func(th *core.Thread) {
		s, keys, err := buildStore(th)
		if err != nil {
			o.fail("%v", err)
			return
		}
		setups = append(setups, time.Since(t0).Seconds())
		rng := rand.New(rand.NewSource(rc.seed))
		check := func(st *storm) bool {
			if err := auditTxn(th, s, keys); err != nil {
				o.fail("%v", err)
				return false
			}
			if st.kills == 0 {
				o.fail("the killer killed no worker")
			}
			o.attempted += st.committed + st.conflicts + st.errs
			o.failed += st.conflicts + st.errs
			return true
		}
		if !rc.trace {
			st, err := runStorm(th, s, keys, rng, rc.phase(0.9, 0), nil)
			if err != nil {
				o.fail("storm: %v", err)
				return
			}
			if !check(st) {
				return
			}
			tps := st.commits.rate(st.dur)
			p50, p90, p99 := st.lat.quantile(0.5), st.lat.quantile(0.9), st.lat.quantile(0.99)
			o.e2e["setup_s"] = median(setups)
			o.e2e["ops_per_s"] = tps
			o.e2e["op_p50_us"] = us(p50)
			o.e2e["op_p90_us"] = us(p90)
			o.name("commit_tps", tps, "txn/s", "higher")
			o.name("txn_p50_us", us(p50), "us", "lower")
			o.name("txn_p90_us", us(p90), "us", "lower")
			o.name("txn_p99_us", us(p99), "us", "lower")
			o.name("kills", float64(st.kills), "count", "higher")
			o.notes = append(o.notes, fmt.Sprintf("%d committed transactions timed, %d kills; figures are medians over %d one-second windows",
				st.lat.count(), st.kills, len(st.lat)))
			return
		}

		d := rc.phase(0.45, 0)
		plain, err := runStorm(th, s, keys, rng, d, nil)
		if err != nil {
			o.fail("storm: %v", err)
			return
		}
		if !check(plain) {
			return
		}
		ob := obs.New()
		ob.Attach(rt)
		tr := newTracer()
		obs0, kv0 := ob.Snapshot(), s.Counters()
		runtime.GC() // the previous phase's garbage is not collected on this one's clock
		p0 := readProc()
		st, err := runStorm(th, s, keys, rng, d, tr)
		if err != nil {
			o.fail("storm: %v", err)
			return
		}
		p1 := readProc()
		if !check(st) {
			return
		}
		ops := st.committed + st.conflicts + st.errs
		procLayer(o, p0, p1, ops)
		coreLayers(o, obs0, ob.Snapshot(), float64(ops))
		kv := s.Counters()
		begins := float64(kv.Begins - kv0.Begins)
		o.layer["kvtxn.begin_us"] = us(tr.get("kvtxn.begin").durations.quantile(0.5))
		o.layer["kvtxn.read_us"] = us(tr.get("kvtxn.get").durations.quantile(0.5))
		commit := tr.get("kvtxn.commit")
		o.layer["kvtxn.commit_us"] = us(commit.durations.quantile(0.5))
		o.layer["kvtxn.commit_p99_us"] = us(commit.durations.quantile(0.99))
		o.layer["kvtxn.commit_ratio"] = ratio(float64(kv.Commits-kv0.Commits), begins)
		o.layer["kvtxn.conflict_abort_ratio"] = ratio(float64(kv.Aborts-kv0.Aborts), begins)
		o.layer["kvtxn.kill_aborts_per_kill"] = ratio(float64(kv.KillAborts-kv0.KillAborts), float64(st.kills))
		o.layer["trace.overhead"] = ratio(st.commits.rate(st.dur), plain.commits.rate(plain.dur))
		if err := tr.write(rc.outDir, rc.stem()); err != nil {
			o.notes = append(o.notes, "spans not written: "+err.Error())
		}
	})
	if err != nil {
		o.fail("runtime: %v", err)
	}
	return o
}
