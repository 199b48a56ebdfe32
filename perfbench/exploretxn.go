package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"repro/internal/explore"
	"repro/internal/explore/scenarios"
	"repro/internal/obs"
)

// explore-txn: explore.Explore with the coverage strategy over the
// registered txn-kill-midlock scenario, a fixed seed budget per sweep,
// Workers = nproc in-process and BaseSeed = the benchmark seed. Sweeps
// repeat until the measuring time is spent.

const (
	exploreScenario  = "txn-kill-midlock"
	exploreSeeds     = 1000 // schedules per sweep
	exploreSetupReps = 50
	exploreSlice     = 300 * time.Millisecond // single schedules timed after each sweep
)

func exploreOptions(seed int64) explore.Options {
	return explore.Options{
		// A schedule averages about 190 decisions; the default cap of
		// 500 left about one in 40,000 inconclusive, which the run would
		// count as failed. A schedule that runs past 2,000 still does.
		MaxSteps: 2000,
		Seeds:    exploreSeeds,
		BaseSeed: seed,
		Strategy: explore.StrategyCoverage,
		Workers:  runtime.GOMAXPROCS(0),
	}
}

// sweep is one fixed-budget exploration's result.
type sweep struct {
	schedules, distinct, steps int
	failing, inconclusive      int
	cpu                        time.Duration
	firstFailure               string
}

func (s sweep) perCPU() float64 { return float64(s.schedules) / s.cpu.Seconds() }

func fromReport(rep *explore.Report, cpu time.Duration) sweep {
	s := sweep{
		schedules: rep.Schedules, distinct: rep.Distinct, steps: rep.Steps,
		cpu:          cpu,
		failing:      rep.Outcomes[explore.StatusStuck] + rep.Outcomes[explore.StatusFail] + rep.Outcomes[explore.StatusError],
		inconclusive: rep.Outcomes[explore.StatusBudget],
	}
	if rep.FirstFailure != nil {
		s.firstFailure = fmt.Sprintf("seed %d: %v %v", rep.FirstFailureSeed, rep.FirstFailure.Status, rep.FirstFailure.Err)
	}
	return s
}

// runSweep runs one explore.Explore sweep, timed in process CPU time.
func runSweep(sc explore.Scenario, opts explore.Options) sweep {
	c0 := cpuTime()
	rep := explore.Explore(sc, opts)
	return fromReport(rep, cpuTime()-c0)
}

// exploreSweeps runs sweeps until d is spent (at least one).
func exploreSweeps(sc explore.Scenario, opts explore.Options, d time.Duration) []sweep {
	var out []sweep
	for end := time.Now().Add(d); len(out) == 0 || time.Now().Before(end); {
		out = append(out, runSweep(sc, opts))
	}
	return out
}

// tracedSweep is explore.Explore's loop rebuilt on the public Driver, with
// a span around every Next, Observe and Job.Run.
func tracedSweep(sc explore.Scenario, opts explore.Options, tr *tracer) sweep {
	d := explore.NewDriver(opts)
	drv := tr.lane()
	defer drv.flush()
	jobs := make(chan explore.Job, opts.Workers)
	results := make(chan explore.JobResult, opts.Workers)
	done := make(chan struct{})
	for i := 0; i < opts.Workers; i++ {
		go func() {
			l := tr.lane()
			defer func() { l.flush(); done <- struct{}{} }()
			for j := range jobs {
				l.begin("explore.job", uint64(j.ID))
				res := j.Run(sc, opts)
				l.end()
				results <- res
			}
		}()
	}
	c0 := cpuTime()
	var s sweep
	pending := map[int64]explore.JobResult{}
	var next int64
	inflight := 0
	for {
		for inflight < opts.Workers {
			drv.begin("explore.next", uint64(d.Issued()))
			j, ok := d.Next()
			drv.end()
			if !ok {
				break
			}
			jobs <- j
			inflight++
		}
		if inflight == 0 {
			break
		}
		res := <-results
		inflight--
		pending[res.ID] = res
		for r, ok := pending[next]; ok; r, ok = pending[next] {
			delete(pending, next)
			next++
			drv.begin("explore.observe", uint64(r.ID))
			d.Observe(r)
			drv.end()
			s.schedules++
			s.steps += r.Steps
			switch {
			case r.Failing():
				s.failing++
				if s.firstFailure == "" {
					s.firstFailure = fmt.Sprintf("job %d: %v %s", r.ID, r.Status, r.Err)
				}
			case r.Status == explore.StatusBudget:
				s.inconclusive++
			}
		}
	}
	close(jobs)
	for i := 0; i < opts.Workers; i++ {
		<-done
	}
	s.distinct = d.Distinct()
	s.cpu = cpuTime() - c0
	return s
}

func runExploreTxn(rc runConfig) *outcome {
	o := newOutcome()
	opts := exploreOptions(rc.seed)
	o.params["scenario"] = exploreScenario
	o.params["strategy"] = opts.Strategy.String()
	o.params["seeds_per_sweep"] = opts.Seeds
	o.params["base_seed"] = opts.BaseSeed
	o.params["workers"] = opts.Workers
	o.params["max_steps"] = opts.MaxSteps

	sc, ok := scenarios.ByName(exploreScenario)
	if !ok {
		o.fail("scenario %s not registered", exploreScenario)
		return o
	}
	// Set-up: building a driver and running its first schedule, which
	// builds the scenario's world on a fresh runtime.
	var setups []float64
	for i := 0; i < exploreSetupReps; i++ {
		t0 := time.Now()
		d := explore.NewDriver(opts)
		j, _ := d.Next()
		d.Observe(j.Run(sc, opts))
		setups = append(setups, time.Since(t0).Seconds())
	}

	account := func(ss ...sweep) {
		for _, s := range ss {
			o.attempted += int64(s.schedules)
			o.failed += int64(s.failing + s.inconclusive)
			if s.failing > 0 {
				o.fail("%d failing schedules; first: %s", s.failing, s.firstFailure)
			}
			if s.schedules != exploreSeeds && s.failing == 0 {
				o.fail("sweep ran %d schedules, want %d", s.schedules, exploreSeeds)
			}
		}
	}

	if !rc.trace {
		// Sweeps alternate with slices in which single schedules are
		// timed, so both figures sample the same stretches of the run.
		// Each slice runs Job.Run through a fresh sequential Driver, so
		// every slice times the same leading schedules. A schedule is
		// timed in process CPU time, like the sweeps: its wall time also
		// holds every wake-up of the runtime threads it grants, and on a
		// shared host the 90th percentile of wall time grew 37% between
		// two sets of runs in which the sweeps' CPU rate fell 10%.
		total := rc.phase(0.9, 0)
		lat := newLatencies(total)
		var sweeps []sweep
		start := time.Now()
		for len(sweeps) == 0 || time.Since(start) < total {
			sweeps = append(sweeps, runSweep(sc, opts))
			d := explore.NewDriver(explore.Options{Seeds: 1 << 30, BaseSeed: opts.BaseSeed, Strategy: opts.Strategy})
			for end := time.Now().Add(exploreSlice); time.Now().Before(end); {
				j, _ := d.Next()
				at, c0 := time.Since(start), cpuTime()
				res := j.Run(sc, opts)
				lat.add(at, cpuTime()-c0)
				d.Observe(res)
				o.attempted++
				if res.Failing() || res.Status == explore.StatusBudget {
					o.failed++
				}
				if res.Failing() {
					o.fail("schedule %d failed: %v %s", j.ID, res.Status, res.Err)
				}
			}
		}
		account(sweeps...)
		var rates, distinct []float64
		for _, s := range sweeps {
			rates = append(rates, s.perCPU())
			distinct = append(distinct, float64(s.distinct))
		}
		rate := median(rates)
		p50, p90, p99 := lat.quantile(0.5), lat.quantile(0.9), lat.quantile(0.99)
		o.e2e["setup_s"] = median(setups)
		o.e2e["ops_per_s"] = rate
		o.e2e["op_p50_us"] = us(p50)
		o.e2e["op_p90_us"] = us(p90)
		o.name("sched_per_cpu_s", rate, "1/s", "higher")
		o.name("sched_cpu_p50_us", us(p50), "us", "lower")
		o.name("sched_cpu_p99_us", us(p99), "us", "lower")
		o.name("distinct", median(distinct), "count", "higher")
		o.name("sweeps", float64(len(sweeps)), "count", "higher")
		o.notes = append(o.notes, fmt.Sprintf(
			"%d sweeps of %d schedules; distinct per sweep min %.0f max %.0f; %d single schedules timed",
			len(sweeps), exploreSeeds, slices.Min(distinct), slices.Max(distinct), lat.count()))
		return o
	}

	plain := exploreSweeps(sc, opts, rc.phase(0.45, 0))
	account(plain...)
	ob := obs.New()
	topts := opts
	topts.Instrument = ob
	tr := newTracer()
	obs0 := ob.Snapshot()
	runtime.GC() // the previous phase's garbage is not collected on this one's clock
	p0 := readProc()
	var traced []sweep
	end := time.Now().Add(rc.phase(0.45, 0))
	for len(traced) == 0 || time.Now().Before(end) {
		traced = append(traced, tracedSweep(sc, topts, tr))
	}
	p1 := readProc()
	account(traced...)
	var schedules, steps, distinct int
	var cpu time.Duration
	for _, s := range traced {
		schedules += s.schedules
		steps += s.steps
		distinct += s.distinct
		cpu += s.cpu
	}
	var plainSched int
	var plainCPU time.Duration
	for _, s := range plain {
		plainSched += s.schedules
		plainCPU += s.cpu
	}
	n := float64(schedules)
	procLayer(o, p0, p1, int64(schedules))
	ob1 := ob.Snapshot()
	coreLayers(o, obs0, ob1, n)
	o.layer["core.syncs_per_decision"] = ratio(float64(ob1.Syncs-obs0.Syncs), float64(steps))
	job := tr.get("explore.job")
	next, observe := tr.get("explore.next"), tr.get("explore.observe")
	o.layer["explore.job_us"] = job.meanUS()
	o.layer["explore.driver_us"] = ratio(float64(next.total+observe.total)/1e3, n)
	o.layer["explore.decisions_per_sched"] = ratio(float64(steps), n)
	o.layer["explore.dup_ratio"] = 1 - ratio(float64(distinct), n)
	o.layer["trace.overhead"] = ratio(n/cpu.Seconds(), float64(plainSched)/plainCPU.Seconds())
	if err := tr.write(rc.outDir, rc.stem()); err != nil {
		o.notes = append(o.notes, "spans not written: "+err.Error())
	}
	return o
}
