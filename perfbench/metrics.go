package main

import (
	"fmt"
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// metricDef names one reported metric. The tables below are the
// benchmark's vocabulary; BENCHMARK.json at the repository root lists the
// same names and units (the self-test holds the two together).
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd metrics are what a user of the system sees. Every workload
// reports every one of them, each in its own terms (see the package
// documentation).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"mem_peak_mb", "MB", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"op_p50_us", "us", "lower"},
	{"op_p90_us", "us", "lower"},
}

// perLayer metrics come from the traced run. A workload that bypasses a
// layer reports that layer's metrics as 0: the layer did no work.
var perLayer = []metricDef{
	{"gen.lag_p50_us", "us", "lower"},
	{"gen.lag_p99_us", "us", "lower"},
	{"netsvc.outside_kv_us", "us", "lower"},
	{"netsvc.sojourn_us", "us", "lower"},
	{"netsvc.shard_max_share", "ratio", "lower"},
	{"netsvc.pipeline_hwm", "count", "higher"},
	{"wire.parse_ns", "ns", "lower"},
	{"wire.append_ns", "ns", "lower"},
	{"wire.bytes_per_op", "B", "lower"},
	{"kvtxn.client_get_us", "us", "lower"},
	{"kvtxn.client_put_us", "us", "lower"},
	{"kvtxn.remote_share", "ratio", "lower"},
	{"kvtxn.begin_us", "us", "lower"},
	{"kvtxn.read_us", "us", "lower"},
	{"kvtxn.commit_us", "us", "lower"},
	{"kvtxn.commit_p99_us", "us", "lower"},
	{"kvtxn.commit_ratio", "ratio", "higher"},
	{"kvtxn.conflict_abort_ratio", "ratio", "lower"},
	{"kvtxn.kill_aborts_per_kill", "ratio", "lower"},
	{"core.syncs_per_op", "count", "lower"},
	{"core.fast_sync_share", "ratio", "higher"},
	{"core.wakes_per_op", "count", "lower"},
	{"core.blocks_per_op", "count", "lower"},
	{"core.spawns_per_op", "count", "lower"},
	{"core.alarm_fires_per_op", "count", "lower"},
	{"core.syncs_per_decision", "count", "lower"},
	{"explore.job_us", "us", "lower"},
	{"explore.driver_us", "us", "lower"},
	{"explore.decisions_per_sched", "count", "lower"},
	{"explore.dup_ratio", "ratio", "lower"},
	{"proc.cpu_us_per_op", "us", "lower"},
	{"proc.allocs_per_op", "count", "lower"},
	{"proc.alloc_bytes_per_op", "B", "lower"},
	{"proc.gc_cpu_fraction", "ratio", "lower"},
	{"trace.overhead", "ratio", "higher"},
}

// namedMetric is a workload's own metric, printed in the human report and
// the record line under the name its workload description uses.
type namedMetric struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
}

// outcome is what one workload run hands back to main.
type outcome struct {
	e2e       map[string]float64     // endToEnd values (untraced runs)
	layer     map[string]float64     // perLayer values (traced runs)
	named     map[string]namedMetric // the workload's own metric names
	params    map[string]any         // inputs, for the reproducibility block
	notes     []string               // caveats printed beside the numbers
	attempted int64
	failed    int64
	errs      []string         // correctness violations; any fails the run
	hostRef   [2]time.Duration // hostRef before and after the run
}

func newOutcome() *outcome {
	return &outcome{
		e2e:    map[string]float64{},
		layer:  map[string]float64{},
		named:  map[string]namedMetric{},
		params: map[string]any{},
	}
}

func (o *outcome) fail(format string, args ...any) {
	o.errs = append(o.errs, fmt.Sprintf(format, args...))
}

func (o *outcome) name(n string, v float64, unit, better string) {
	o.named[n] = namedMetric{Value: v, Unit: unit, Better: better}
}

// ---- sample statistics -------------------------------------------------

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles matches Python's statistics.quantiles(xs, n=4) with the
// default "exclusive" method, so the comparator's spreads are the ones a
// reader recomputes from the same values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld == 0 {
		return 0, 0
	}
	if ld == 1 {
		return s[0], s[0]
	}
	q := func(i int) float64 {
		const n = 4
		m := ld + 1
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// ---- process counters --------------------------------------------------

// procSample is a point-in-time reading of the process's CPU, allocation
// and GC counters.
type procSample struct {
	cpu        time.Duration // user + system
	mallocs    uint64
	allocBytes uint64
	gcCPU      float64 // runtime/metrics estimate, CPU-seconds
}

var procMetricNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // RUSAGE_SELF cannot fail
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reports the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func readProc() procSample {
	ms := make([]metrics.Sample, len(procMetricNames))
	for i, n := range procMetricNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	return procSample{
		cpu:        cpuTime(),
		mallocs:    ms[0].Value.Uint64(),
		allocBytes: ms[1].Value.Uint64(),
		gcCPU:      ms[2].Value.Float64(),
	}
}

// procLayer fills the proc.* metrics for ops operations done between a
// and b.
func procLayer(o *outcome, a, b procSample, ops int64) {
	n := float64(ops)
	o.layer["proc.cpu_us_per_op"] = ratio(us(b.cpu-a.cpu), n)
	o.layer["proc.allocs_per_op"] = ratio(float64(b.mallocs-a.mallocs), n)
	o.layer["proc.alloc_bytes_per_op"] = ratio(float64(b.allocBytes-a.allocBytes), n)
	o.layer["proc.gc_cpu_fraction"] = ratio(b.gcCPU-a.gcCPU, (b.cpu - a.cpu).Seconds())
}

// ---- windowed statistics ----------------------------------------------
//
// A run on a shared host sees bursts of stolen CPU that move a run's tail
// far more than any change to the program would. The benchmark therefore
// cuts each measuring phase into one-second windows, computes a figure per
// window, and reports the median over the windows: one bad second moves
// it no more than one good second does.

const window = time.Second

// histogram is log-linear: subBuckets buckets per power of two of
// nanoseconds, about 1% wide, in constant memory. Quantiles interpolate
// by rank inside their bucket.
const subBuckets = 64

type histogram struct {
	counts [40 * subBuckets]int64 // up to 2^40 ns, about 18 minutes
	n, sum int64
}

func bucketOf(ns int64) int {
	if ns < 1 {
		ns = 1
	}
	return min(int(math.Log2(float64(ns))*subBuckets), len(histogram{}.counts)-1)
}

func bucketLow(i int) float64 { return math.Exp2(float64(i) / subBuckets) }

func (h *histogram) add(ns int64) {
	h.counts[bucketOf(ns)]++
	h.n++
	h.sum += ns
}

func (h *histogram) merge(o *histogram) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

func (h *histogram) mean() time.Duration {
	if h.n == 0 {
		return 0
	}
	return time.Duration(h.sum / h.n)
}

// quantile returns the q-th sample by the nearest-rank rule.
func (h *histogram) quantile(q float64) time.Duration {
	k := max(int64(math.Ceil(q*float64(h.n)))-1, 0)
	var seen int64
	for i, c := range h.counts {
		if seen+c > k {
			lo, hi := bucketLow(i), bucketLow(i+1)
			return time.Duration(lo + (hi-lo)*(float64(k-seen)+0.5)/float64(c))
		}
		seen += c
	}
	return 0
}

// latencies keeps one histogram per window of a phase; a sample past the
// last whole window counts in the last one.
type latencies []*histogram

func newLatencies(phase time.Duration) latencies {
	l := make(latencies, max(1, int(phase/window)))
	for i := range l {
		l[i] = &histogram{}
	}
	return l
}

// add records a latency d for an operation due at offset at from the
// phase start.
func (l latencies) add(at, d time.Duration) {
	l[min(max(int(at/window), 0), len(l)-1)].add(int64(d))
}

func (l latencies) merge(o latencies) {
	for i := range l {
		l[i].merge(o[i])
	}
}

func (l latencies) count() int64 {
	var n int64
	for _, h := range l {
		n += h.n
	}
	return n
}

// quantile is the median over the phase's windows of each window's q-th
// quantile.
func (l latencies) quantile(q float64) time.Duration {
	var per []float64
	for _, h := range l {
		if h.n > 0 {
			per = append(per, float64(h.quantile(q)))
		}
	}
	return time.Duration(median(per))
}

// counts tallies events per window of a phase.
type counts []int64

func newCounts(phase time.Duration) counts {
	return make(counts, max(1, int(phase/window)))
}

// add counts an event at offset at from the phase start.
func (c counts) add(at time.Duration) {
	if i := int(at / window); i >= 0 && i < len(c) {
		c[i]++
	}
}

func (c counts) merge(o counts) {
	for i := range c {
		c[i] += o[i]
	}
}

// rate is the median over the phase's windows of the events per second
// counted in each (the whole phase's rate when it is shorter than one
// window).
func (c counts) rate(phase time.Duration) float64 {
	if phase < window {
		return float64(c[0]) / phase.Seconds()
	}
	per := make([]float64, len(c))
	for i, n := range c {
		per[i] = float64(n)
	}
	return median(per) / window.Seconds()
}

var refSink uint64

// hostRef times a fixed CPU-bound loop. The shared hosts this runs on
// change speed by tens of percent over minutes; the record carries this
// reading from the start and the end of each run, so that a reader can
// tell a slower program from a slower host.
func hostRef() time.Duration {
	x := uint64(1)
	t0 := time.Now()
	for i := 0; i < 20_000_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	refSink = x
	return time.Since(t0)
}
