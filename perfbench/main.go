// Command perfbench is the repository's benchmark: one command that runs
// a named workload against the program's public API, checks the outputs,
// and prints every end-to-end metric (untraced runs) or every per-layer
// metric (traced runs) by name, with its unit. It runs on Linux.
//
//	perfbench --workload serve-kv --seed 1 --seconds 35 --trace 0
//	perfbench compare A B   # A/A comparison of saved standard output
//
// From the repository root, bash perfbench/run.sh builds it and passes its
// arguments on.
//
// Every workload reports the same end-to-end metrics, each in its own
// terms:
//
//   - serve-kv (HTTP/1.1 over loopback to netsvc.ServeSharded, the kvtxn
//     store behind its Gateway): ops_per_s is the closed-loop phase's
//     verified replies per second (peak_rps); op_p50_us and op_p90_us are
//     the open-loop phase's latencies from each request's due time
//     (lat_p50_us, lat_p90_us).
//   - txn-kill (kvtxn transactions in one runtime while a killer thread
//     kills workers): ops_per_s is committed transactions per second
//     (commit_tps); op_p50_us and op_p90_us time Begin to Commit of
//     committed transactions (txn_p50_us, txn_p90_us).
//   - explore-txn (explore.Explore sweeps of txn-kill-midlock): ops_per_s
//     is schedules per process CPU-second (sched_per_cpu_s); op_p50_us and
//     op_p90_us are the process CPU time of one schedule's Job.Run
//     (sched_cpu_p50_us).
//
// setup_s is the median of several set-ups in the run and mem_peak_mb the
// peak resident set. The names in parentheses, the 99th percentiles
// (lat_p99_us, txn_p99_us, sched_cpu_p99_us), the explorer's distinct
// interleavings and the failed share of operations are printed under the
// workload's own names. The 99th percentiles are not end-to-end metrics:
// on the shared 2-core hosts this was tuned on they moved by 20 to 100%
// between runs of the same code.
//
// The last line of standard output is the result object; the line before
// it is a record with the reproducibility block (host, Go version, commit,
// seed, workload parameters), every figure and a reading of the host's
// speed, which the compare subcommand reads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string // where traced runs write their spans; empty: nowhere
}

// phase returns frac of the measuring time, capped at max seconds when
// max > 0.
func (rc runConfig) phase(frac, max float64) time.Duration {
	s := rc.seconds * frac
	if max > 0 && s > max {
		s = max
	}
	return time.Duration(s * float64(time.Second))
}

func (rc runConfig) stem() string { return fmt.Sprintf("%s-seed%d", rc.workload, rc.seed) }

type workload struct {
	run func(runConfig) *outcome
	why string
}

var workloads = map[string]workload{
	"serve-kv":    {runServeKV, "the request path does the work (sockets, netsvc, wire, web, gateway hop) while kvtxn serves uncontended single-key calls"},
	"txn-kill":    {runTxnKill, "kvtxn and core do the work (2PL lock waits, kill reclaim, commit hand-off) with netsvc and wire bypassed"},
	"explore-txn": {runExploreTxn, "core runs in deterministic mode under the explorer's hook, with no sockets; measures schedules per CPU-second"},
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var (
		rc    runConfig
		trace int
	)
	flag.StringVar(&rc.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&rc.seed, "seed", 1, "seed for every generated input")
	flag.Float64Var(&rc.seconds, "seconds", 20, "measuring time")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics")
	flag.Parse()
	rc.trace = trace == 1
	w, ok := workloads[rc.workload]
	if !ok || rc.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds > 0, --trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if dir := os.Getenv("PERFBENCH_OUT"); dir != "" {
		rc.outDir = dir + "/spans"
	}
	ref := hostRef()
	o := w.run(rc)
	o.hostRef = [2]time.Duration{ref, hostRef()}
	res, err := report(os.Stdout, rc, w, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// result is the contract line: the last line of standard output.
type result struct {
	Correct   bool                    `json:"correct"`
	Attempted int64                   `json:"attempted"`
	Failed    int64                   `json:"failed"`
	Metrics   map[string]resultMetric `json:"metrics"`
}

type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is the line before the result: everything needed to reproduce
// and to compare the run.
type record struct {
	Perfbench string                 `json:"perfbench"`
	Workload  string                 `json:"workload"`
	Why       string                 `json:"why"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Trace     bool                   `json:"trace"`
	Env       map[string]any         `json:"env"`
	Params    map[string]any         `json:"params"`
	Named     map[string]namedMetric `json:"named,omitempty"`
	Metrics   map[string]namedMetric `json:"metrics"`
	FailRatio float64                `json:"fail_ratio"`
	HostRefMS [2]float64             `json:"host_ref_ms"` // hostRef at the start and the end
	Errors    []string               `json:"errors,omitempty"`
	Notes     []string               `json:"notes,omitempty"`
}

func environment() map[string]any {
	env := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"commit":     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				env["commit"] = s.Value
			case "vcs.modified":
				env["commit_modified"] = s.Value == "true"
			}
		}
	}
	return env
}

// report prints the human summary, the record and the result line.
func report(out io.Writer, rc runConfig, w workload, o *outcome) (result, error) {
	defs, values := endToEnd, o.e2e
	if rc.trace {
		defs, values = perLayer, o.layer
	} else {
		o.e2e["mem_peak_mb"] = peakRSSMB()
	}
	res := result{
		Correct:   len(o.errs) == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]resultMetric{},
	}
	rec := record{
		Perfbench: "1", Workload: rc.workload, Why: w.why, Seed: rc.seed, Seconds: rc.seconds, Trace: rc.trace,
		Env: environment(), Params: o.params, Named: o.named, Metrics: map[string]namedMetric{},
		FailRatio: ratio(float64(o.failed), float64(o.attempted)), Errors: o.errs, Notes: o.notes,
		HostRefMS: [2]float64{us(o.hostRef[0]) / 1e3, us(o.hostRef[1]) / 1e3},
	}
	if res.Attempted < 1 {
		res.Correct = false
		rec.Errors = append(rec.Errors, "no operation attempted")
	}
	fmt.Fprintf(out, "perfbench %s seed=%d seconds=%g trace=%v  (%s)\n", rc.workload, rc.seed, rc.seconds, rc.trace, w.why)
	for _, d := range defs {
		v := values[d.Name] // a layer the workload bypasses did no work: 0
		res.Metrics[d.Name] = resultMetric{Value: v, Unit: d.Unit}
		rec.Metrics[d.Name] = namedMetric{Value: v, Unit: d.Unit, Better: d.Better}
		fmt.Fprintf(out, "  %-28s %14.4f %-6s (%s is better)\n", d.Name, v, d.Unit, d.Better)
	}
	if len(o.named) > 0 {
		fmt.Fprintf(out, "  workload's own names:\n")
		names := make([]string, 0, len(o.named))
		for n := range o.named {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			m := o.named[n]
			fmt.Fprintf(out, "  %-28s %14.4f %-6s (%s is better)\n", n, m.Value, m.Unit, m.Better)
		}
	}
	fmt.Fprintf(out, "  %-28s %14.6f ratio  (%d failed of %d attempted)\n", "fail_ratio", rec.FailRatio, o.failed, o.attempted)
	for _, n := range o.notes {
		fmt.Fprintf(out, "  note: %s\n", n)
	}
	for _, e := range rec.Errors {
		fmt.Fprintf(out, "  CHECK FAILED: %s\n", e)
	}
	res.Correct = res.Correct && len(rec.Errors) == 0
	enc := json.NewEncoder(out)
	if err := enc.Encode(rec); err != nil {
		return res, err
	}
	return res, enc.Encode(res)
}
