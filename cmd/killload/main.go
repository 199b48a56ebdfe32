// Command killload is the wire-protocol latency harness: it self-hosts
// the sharded kill-safe server (internal/netsvc) with the transactional
// KV store mounted behind it, drives it over real TCP with open-loop
// load in both wire protocols (HTTP/1.1 keep-alive and RESP), and
// records per-protocol latency percentiles as BENCH_load.json.
//
// The clients are plain goroutines outside the runtime on purpose: the
// harness measures the serving stack as an external client would see
// it. Load is open-loop — each connection fires on a fixed schedule and
// latency is measured from the *intended* send time, so a stalled
// server accrues the queueing delay it caused instead of silently
// slowing the clients (no coordinated omission).
//
// Legs per protocol:
//
//   - quiescent keep-alive legs at each -conns count (GET/SET mix)
//   - a pipelined leg (-pipeline requests per batch, one write)
//   - a kill-storm leg: MULTI/EXEC pair transfers while a killer
//     terminates random sessions mid-request via the server's own
//     /chaos/kill route, over the wire
//
// The storm leg carries the paper's oracles: every transaction writes a
// disjoint key pair with values summing to 1000, so after quiescence
// the store must audit clean (wedged == 0) and every pair must still
// sum to 1000 (sum_delta == 0) — a session killed mid-EXEC either
// committed both writes or neither. Goodput loss versus the matched
// quiescent leg is reported as goodput_delta_pct and optionally fenced
// (-fence) for CI.
//
// The process exits nonzero if an oracle fails or the fence trips.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"os"
	goruntime "runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/abstractions/kvtxn"
	"repro/internal/core"
	"repro/internal/netsvc"
	"repro/internal/web"
)

const (
	quiescentKeys = 256 // key population for the GET/SET mix
	pairSeed      = 500 // each pair key starts at 500; pair sum must stay 1000
	clientTimeout = 10 * time.Second
)

type legConfig struct {
	protocol string
	conns    int
	pipeline int
	killRate int // kill requests per second; 0 = quiescent
}

type legRow struct {
	Protocol        string  `json:"protocol"`
	Conns           int     `json:"conns"`
	Pipeline        int     `json:"pipeline"`
	KillRate        int     `json:"kill_rate"`
	TargetRPS       float64 `json:"target_rps"`
	AchievedRPS     float64 `json:"achieved_rps"`
	GoodputRPS      float64 `json:"goodput_rps"`
	Errors          int64   `json:"errors"`
	Kills           int64   `json:"kills"`
	P50us           int64   `json:"p50_us"`
	P99us           int64   `json:"p99_us"`
	P999us          int64   `json:"p999_us"`
	GOMAXPROCS      int     `json:"gomaxprocs"`
	DurationMs      int64   `json:"duration_ms"`
	GoodputDeltaPct float64 `json:"goodput_delta_pct"` // storm rows: loss vs matched quiescent leg
	Wedged          int     `json:"wedged"`            // storm rows: audit residue after quiesce
	SumDelta        int     `json:"sum_delta"`         // storm rows: pair-sum drift (half-commits)
}

type report struct {
	Suite       string         `json:"suite"`
	Description string         `json:"description"`
	Recorded    string         `json:"recorded"`
	Environment map[string]any `json:"environment"`
	Legs        []legRow       `json:"legs"`
}

// hist is a log-bucketed latency histogram (16 sub-buckets per octave of
// microseconds), HDR-style: constant memory, bounded relative error.
const histBuckets = 512

type hist struct {
	counts [histBuckets]int64
	n      int64
}

func bucketOf(us int64) int {
	if us < 1 {
		us = 1
	}
	b := int(math.Log2(float64(us)) * 16)
	if b < 0 {
		b = 0
	}
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

func (h *hist) add(us int64) {
	h.counts[bucketOf(us)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the lower bound of the bucket holding the q-th
// latency sample, in microseconds.
func (h *hist) quantile(q float64) int64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(q * float64(h.n-1))
	var seen int64
	for i, c := range h.counts {
		seen += c
		if seen > rank {
			return int64(math.Exp2(float64(i) / 16))
		}
	}
	return int64(math.Exp2(float64(histBuckets) / 16))
}

// auditRes is the shard-0 auditor's report after a storm leg.
type auditRes struct {
	wedged   int
	sumDelta int
	err      error
}

// testServer is one leg's self-hosted serving fleet.
type testServer struct {
	m          *netsvc.ShardedServer
	addr       string
	auditCell  *core.External
	auditReply chan auditRes
}

// startServer builds the fleet for one leg: the transactional store on
// shard 0, every shard's servlet reaching it through the cross-runtime
// gateway, a /chaos/kill route for the storm, and a parked auditor
// thread on the store's runtime that the harness triggers after the
// storm to run the kill-safety oracles.
func startServer(shards, maxConns int, protocol string, chaosSeed int64) (*testServer, error) {
	gw := kvtxn.NewGateway()
	ts := &testServer{auditReply: make(chan auditRes, 1)}
	var chaosMu sync.Mutex
	chaosRng := rand.New(rand.NewSource(chaosSeed))
	m, err := netsvc.ServeSharded(netsvc.Config{
		MaxConns:    maxConns,
		MaxPending:  -1, // pure backpressure; shedding would pollute the latency tail
		IdleTimeout: 30 * time.Second,
		Shards:      shards,
		Protocol:    protocol,
	}, func(th *core.Thread, shard int) *web.Server {
		rt := th.Runtime()
		ws := web.NewServer(th)
		if shard == 0 {
			s := kvtxn.NewWith(th, kvtxn.Options{
				Strategy: kvtxn.Locking,
				Shards:   8,
				LockWait: 50 * time.Millisecond,
			})
			gw.Bind(th, s)
			cell := core.NewExternal(rt)
			ts.auditCell = cell
			th.Spawn("killload-auditor", func(x *core.Thread) {
				var v core.Value
				var err error
				for {
					if v, err = core.Sync(x, cell.Evt()); err == nil {
						break
					}
				}
				ts.auditReply <- auditStore(x, s, v.(int))
			})
		}
		kvtxn.Mount(ws, gw, "/kv")
		ws.Handle("/chaos/kill", func(_ *core.Thread, sess *web.Session, _ *web.Request) web.Response {
			var cand []int
			for _, id := range ws.Sessions() {
				if id != sess.ID {
					cand = append(cand, id)
				}
			}
			if len(cand) == 0 {
				return web.Response{Status: 200, Body: "none\n"}
			}
			chaosMu.Lock()
			id := cand[chaosRng.Intn(len(cand))]
			chaosMu.Unlock()
			ws.Terminate(id)
			rt.TerminateCondemned()
			return web.Response{Status: 200, Body: fmt.Sprintf("killed %d\n", id)}
		})
		return ws
	})
	if err != nil {
		return nil, err
	}
	ts.m = m
	ts.addr = m.Addr().String()
	return ts, nil
}

// auditStore runs on the store's runtime after a storm: wait for the
// death-watch aborters to quiesce (audit clean), then read every pair
// back and check the sum invariant.
func auditStore(x *core.Thread, s *kvtxn.Store, pairs int) auditRes {
	deadline := time.Now().Add(10 * time.Second)
	wedged := -1
	for {
		a, err := s.Audit(x)
		if err != nil {
			return auditRes{wedged: -1, err: err}
		}
		wedged = a.HeldLocks + a.WaitingReqs + a.PreparedTxns + a.LiveTxns
		if wedged == 0 || time.Now().After(deadline) {
			break
		}
		if core.Sleep(x, 2*time.Millisecond) != nil {
			return auditRes{wedged: wedged, err: fmt.Errorf("auditor interrupted")}
		}
	}
	sum := 0
	for i := 0; i < 2*pairs; i++ {
		v, found, err := s.Get(x, "p"+strconv.Itoa(i))
		if err != nil || !found {
			return auditRes{wedged: wedged, err: fmt.Errorf("pair key p%d unreadable: found=%v err=%v", i, found, err)}
		}
		n, err := strconv.Atoi(v)
		if err != nil {
			return auditRes{wedged: wedged, err: err}
		}
		sum += n
	}
	return auditRes{wedged: wedged, sumDelta: sum - 2*pairs*pairSeed}
}

// readHTTPResponse reads one HTTP response (status code and body) off a
// keep-alive connection.
func readHTTPResponse(br *bufio.Reader) (int, string, error) {
	line, err := br.ReadString('\n')
	if err != nil {
		return 0, "", err
	}
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return 0, "", fmt.Errorf("bad status line %q", line)
	}
	code, err := strconv.Atoi(fields[1])
	if err != nil {
		return 0, "", fmt.Errorf("bad status code in %q", line)
	}
	contentLn := -1
	for {
		h, err := br.ReadString('\n')
		if err != nil {
			return 0, "", err
		}
		h = strings.TrimRight(h, "\r\n")
		if h == "" {
			break
		}
		if k, v, ok := strings.Cut(h, ":"); ok && strings.EqualFold(k, "Content-Length") {
			contentLn, _ = strconv.Atoi(strings.TrimSpace(v))
		}
	}
	if contentLn < 0 {
		return 0, "", fmt.Errorf("response without Content-Length")
	}
	body := make([]byte, contentLn)
	if _, err := io.ReadFull(br, body); err != nil {
		return 0, "", err
	}
	return code, string(body), nil
}

// readRESPReply reads one RESP reply and renders it as a compact string:
// simple lines verbatim, "$"+contents for bulks ("$-1" for null), and
// "*"+first-element for arrays (enough to classify an EXEC result).
func readRESPReply(br *bufio.Reader) (string, error) {
	line, err := br.ReadString('\n')
	if err != nil {
		return "", err
	}
	line = strings.TrimRight(line, "\r\n")
	if line == "" {
		return "", fmt.Errorf("empty RESP line")
	}
	switch line[0] {
	case '+', '-', ':':
		return line, nil
	case '$':
		n, err := strconv.Atoi(line[1:])
		if err != nil {
			return "", fmt.Errorf("bad bulk length %q", line)
		}
		if n < 0 {
			return "$-1", nil
		}
		buf := make([]byte, n+2)
		if _, err := io.ReadFull(br, buf); err != nil {
			return "", err
		}
		return "$" + string(buf[:n]), nil
	case '*':
		n, err := strconv.Atoi(line[1:])
		if err != nil {
			return "", fmt.Errorf("bad array length %q", line)
		}
		if n <= 0 {
			return "*0", nil
		}
		first, err := readRESPReply(br)
		if err != nil {
			return "", err
		}
		for i := 1; i < n; i++ {
			if _, err := readRESPReply(br); err != nil {
				return "", err
			}
		}
		return "*" + first, nil
	}
	return "", fmt.Errorf("unexpected RESP type %q", line)
}

// seedKeys writes names[i]=val through one pipelined wire connection in
// the leg's own protocol, verifying every reply.
func seedKeys(addr, protocol string, names []string, val string) error {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return err
	}
	defer c.Close()
	br := bufio.NewReader(c)
	const batch = 64
	for i := 0; i < len(names); i += batch {
		end := i + batch
		if end > len(names) {
			end = len(names)
		}
		var buf []byte
		for _, k := range names[i:end] {
			if protocol == "resp" {
				buf = fmt.Appendf(buf, "SET %s %s\r\n", k, val)
			} else {
				buf = fmt.Appendf(buf, "PUT /kv?key=%s&val=%s HTTP/1.1\r\n\r\n", k, val)
			}
		}
		_ = c.SetDeadline(time.Now().Add(clientTimeout))
		if _, err := c.Write(buf); err != nil {
			return err
		}
		for range names[i:end] {
			if protocol == "resp" {
				rep, err := readRESPReply(br)
				if err != nil {
					return err
				}
				if rep != "+OK" {
					return fmt.Errorf("seed SET: %s", rep)
				}
			} else {
				code, body, err := readHTTPResponse(br)
				if err != nil {
					return err
				}
				if code != 200 {
					return fmt.Errorf("seed PUT: %d %s", code, body)
				}
			}
		}
	}
	return nil
}

// workerStats is one connection's tally, merged after the leg.
type workerStats struct {
	ops, good, errs int64
	h               hist
}

// runWorker is one keep-alive client connection: it fires a batch of
// leg.pipeline operations every interval on the open-loop schedule and
// reads the responses back, reconnecting (and counting an error) when
// the connection dies under it — which in a kill storm it regularly
// does.
func runWorker(id int, leg legConfig, addr string, start, stopAt time.Time, interval time.Duration, ws *workerStats) {
	rng := rand.New(rand.NewSource(int64(id)*7919 + 17))
	var c net.Conn
	var br *bufio.Reader
	dial := func() bool {
		for time.Now().Before(stopAt) {
			cc, err := net.DialTimeout("tcp", addr, 5*time.Second)
			if err == nil {
				c = cc
				br = bufio.NewReader(cc)
				return true
			}
			time.Sleep(10 * time.Millisecond)
		}
		return false
	}
	if !dial() {
		return
	}
	defer func() { _ = c.Close() }()

	// buildOp appends one operation's wire bytes; readOp consumes its
	// replies and classifies success.
	var buildOp func(buf []byte) []byte
	var readOp func() (bool, error)
	switch {
	case leg.killRate > 0 && leg.protocol == "resp":
		// Pair transfer as MULTI/EXEC: 4 commands, 4 replies, the EXEC
		// array decides. Pair `id` is this worker's alone.
		buildOp = func(buf []byte) []byte {
			d := rng.Intn(400)
			return fmt.Appendf(buf, "MULTI\r\nSET p%d %d\r\nSET p%d %d\r\nEXEC\r\n",
				2*id, pairSeed-d, 2*id+1, pairSeed+d)
		}
		readOp = func() (bool, error) {
			var last string
			for i := 0; i < 4; i++ {
				rep, err := readRESPReply(br)
				if err != nil {
					return false, err
				}
				last = rep
			}
			return strings.HasPrefix(last, "*+COMMITTED"), nil
		}
	case leg.killRate > 0:
		buildOp = func(buf []byte) []byte {
			d := rng.Intn(400)
			return fmt.Appendf(buf, "GET /kv/multi?ops=w:p%d:%d,w:p%d:%d HTTP/1.1\r\n\r\n",
				2*id, pairSeed-d, 2*id+1, pairSeed+d)
		}
		readOp = func() (bool, error) {
			code, body, err := readHTTPResponse(br)
			if err != nil {
				return false, err
			}
			return code == 200 && strings.HasPrefix(body, "COMMITTED"), nil
		}
	case leg.protocol == "resp":
		buildOp = func(buf []byte) []byte {
			k := rng.Intn(quiescentKeys)
			if rng.Intn(2) == 0 {
				return fmt.Appendf(buf, "GET k%d\r\n", k)
			}
			return fmt.Appendf(buf, "SET k%d x%d\r\n", k, rng.Intn(1000))
		}
		readOp = func() (bool, error) {
			rep, err := readRESPReply(br)
			if err != nil {
				return false, err
			}
			return !strings.HasPrefix(rep, "-"), nil
		}
	default:
		buildOp = func(buf []byte) []byte {
			k := rng.Intn(quiescentKeys)
			if rng.Intn(2) == 0 {
				return fmt.Appendf(buf, "GET /kv?key=k%d HTTP/1.1\r\n\r\n", k)
			}
			return fmt.Appendf(buf, "PUT /kv?key=k%d&val=x%d HTTP/1.1\r\n\r\n", k, rng.Intn(1000))
		}
		readOp = func() (bool, error) {
			code, _, err := readHTTPResponse(br)
			if err != nil {
				return false, err
			}
			return code == 200 || code == 404, nil
		}
	}

	// Phase-offset the schedule so the fleet doesn't fire in lockstep.
	next := start.Add(time.Duration(rng.Int63n(int64(interval) + 1)))
	buf := make([]byte, 0, 4096)
	for {
		now := time.Now()
		if !now.Before(stopAt) {
			return
		}
		if now.Before(next) {
			time.Sleep(next.Sub(now))
			if !next.Before(stopAt) {
				return
			}
		}
		intended := next
		next = next.Add(interval)
		buf = buf[:0]
		for i := 0; i < leg.pipeline; i++ {
			buf = buildOp(buf)
		}
		ws.ops += int64(leg.pipeline)
		ok := func() bool {
			_ = c.SetDeadline(time.Now().Add(clientTimeout))
			if _, err := c.Write(buf); err != nil {
				return false
			}
			for i := 0; i < leg.pipeline; i++ {
				good, err := readOp()
				if err != nil {
					return false
				}
				if good {
					ws.good++
				}
			}
			return true
		}()
		us := time.Since(intended).Microseconds()
		if ok {
			for i := 0; i < leg.pipeline; i++ {
				ws.h.add(us)
			}
			continue
		}
		// The connection died (in a storm: was killed) mid-batch; the
		// in-flight requests are the casualty, the schedule restarts
		// from a fresh connection.
		ws.errs++
		_ = c.Close()
		if !dial() {
			return
		}
		next = time.Now()
	}
}

// runKiller fires kill requests at the configured rate, each on a fresh
// short-lived connection so the kills spread across shards (a session's
// /chaos/kill reaches only its own shard's session table). Returns the
// number of confirmed kills.
func runKiller(leg legConfig, addr string, stopAt time.Time, kills *atomic.Int64, done chan<- struct{}) {
	defer close(done)
	interval := time.Second / time.Duration(leg.killRate)
	for time.Now().Before(stopAt) {
		time.Sleep(interval)
		c, err := net.DialTimeout("tcp", addr, 2*time.Second)
		if err != nil {
			continue
		}
		_ = c.SetDeadline(time.Now().Add(2 * time.Second))
		br := bufio.NewReader(c)
		if leg.protocol == "resp" {
			if _, err := io.WriteString(c, "CALL /chaos/kill\r\n"); err == nil {
				if rep, err := readRESPReply(br); err == nil && strings.Contains(rep, "killed") {
					kills.Add(1)
				}
			}
		} else {
			if _, err := io.WriteString(c, "GET /chaos/kill HTTP/1.1\r\nConnection: close\r\n\r\n"); err == nil {
				if _, body, err := readHTTPResponse(br); err == nil && strings.Contains(body, "killed") {
					kills.Add(1)
				}
			}
		}
		_ = c.Close()
	}
}

// runLeg hosts a fresh fleet, seeds it, drives one leg's load, and
// gathers the row. Storm legs additionally trigger the shard-0 auditor
// and fold its oracles in.
func runLeg(leg legConfig, dur time.Duration, rate float64, shards int, seed int64) (legRow, error) {
	row := legRow{
		Protocol:   leg.protocol,
		Conns:      leg.conns,
		Pipeline:   leg.pipeline,
		KillRate:   leg.killRate,
		TargetRPS:  rate,
		GOMAXPROCS: goruntime.GOMAXPROCS(0),
		DurationMs: dur.Milliseconds(),
	}
	ts, err := startServer(shards, leg.conns+8, leg.protocol, seed)
	if err != nil {
		return row, err
	}
	defer func() { _ = ts.m.Shutdown(2 * time.Second) }()

	var names []string
	if leg.killRate > 0 {
		for i := 0; i < 2*leg.conns; i++ {
			names = append(names, "p"+strconv.Itoa(i))
		}
	} else {
		for i := 0; i < quiescentKeys; i++ {
			names = append(names, "k"+strconv.Itoa(i))
		}
	}
	if err := seedKeys(ts.addr, leg.protocol, names, strconv.Itoa(pairSeed)); err != nil {
		return row, fmt.Errorf("seed: %w", err)
	}

	interval := time.Duration(float64(leg.conns*leg.pipeline) / rate * float64(time.Second))
	start := time.Now()
	stopAt := start.Add(dur)
	stats := make([]workerStats, leg.conns)
	var wg sync.WaitGroup
	for i := 0; i < leg.conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			runWorker(i, leg, ts.addr, start, stopAt, interval, &stats[i])
		}(i)
	}
	var kills atomic.Int64
	killerDone := make(chan struct{})
	if leg.killRate > 0 {
		go runKiller(leg, ts.addr, stopAt, &kills, killerDone)
	} else {
		close(killerDone)
	}
	wg.Wait()
	<-killerDone
	elapsed := time.Since(start)

	var total workerStats
	for i := range stats {
		total.ops += stats[i].ops
		total.good += stats[i].good
		total.errs += stats[i].errs
		total.h.merge(&stats[i].h)
	}
	row.AchievedRPS = float64(total.ops) / elapsed.Seconds()
	row.GoodputRPS = float64(total.good) / elapsed.Seconds()
	row.Errors = total.errs
	row.Kills = kills.Load()
	row.P50us = total.h.quantile(0.50)
	row.P99us = total.h.quantile(0.99)
	row.P999us = total.h.quantile(0.999)
	row.DurationMs = elapsed.Milliseconds()

	if leg.killRate > 0 {
		ts.auditCell.Complete(leg.conns)
		select {
		case res := <-ts.auditReply:
			if res.err != nil {
				return row, fmt.Errorf("audit: %w", res.err)
			}
			row.Wedged = res.wedged
			row.SumDelta = res.sumDelta
		case <-time.After(15 * time.Second):
			return row, fmt.Errorf("auditor never answered")
		}
	}
	return row, nil
}

// buildLegs lays the sweep out: quiescent legs at each connection
// count, one pipelined leg at the lowest, and one kill-storm leg at the
// highest, per protocol.
func buildLegs(protocols []string, connsList []int, pipeline, killRate int) []legConfig {
	var out []legConfig
	for _, p := range protocols {
		for _, c := range connsList {
			out = append(out, legConfig{protocol: p, conns: c, pipeline: 1})
		}
		out = append(out, legConfig{protocol: p, conns: connsList[0], pipeline: pipeline})
		out = append(out, legConfig{protocol: p, conns: connsList[len(connsList)-1], pipeline: 1, killRate: killRate})
	}
	return out
}

func main() {
	var (
		out       = flag.String("out", "BENCH_load.json", "output file")
		dur       = flag.Duration("dur", 2*time.Second, "per-leg run duration")
		quick     = flag.Bool("quick", false, "small smoke sweep (8 conns, short legs)")
		connsFlag = flag.String("conns", "32,1024", "comma-separated keep-alive connection counts")
		rate      = flag.Float64("rate", 3000, "total target requests per second per leg")
		pipeline  = flag.Int("pipeline", 8, "batch depth for the pipelined leg")
		killRate  = flag.Int("kill-rate", 50, "session kills per second in the storm leg")
		shards    = flag.Int("shards", 0, "server runtime shards (0 = netsvc default)")
		protocols = flag.String("protocols", "http,resp", "comma-separated wire protocols to sweep")
		fence     = flag.Float64("fence", 0, "max allowed storm goodput loss in percent; exceeded = exit nonzero (0 disables)")
		seed      = flag.Int64("seed", 1, "root rng seed")
		overload  = flag.Bool("overload", false, "run the overload/drain suite (adaptive admission sweep + rolling shard drain) instead of the latency sweep")
		olFence   = flag.Bool("overload-fence", false, "with -overload: enforce the priority/goodput fences and drain oracles as exit status")
	)
	flag.Parse()

	if *overload {
		if !flagSet("out") {
			*out = "BENCH_overload.json"
		}
		legDur := *dur
		if !flagSet("dur") {
			legDur = 3 * time.Second
			if *quick {
				legDur = time.Second
			}
		}
		if bad := runOverloadSuite(*out, legDur, *quick, *olFence, *seed); bad > 0 {
			fmt.Fprintf(os.Stderr, "FAIL: %d overload oracles/fences violated\n", bad)
			os.Exit(1)
		}
		return
	}

	connsList := []int{}
	for _, s := range strings.Split(*connsFlag, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n <= 0 {
			fmt.Fprintf(os.Stderr, "killload: bad -conns entry %q\n", s)
			os.Exit(2)
		}
		connsList = append(connsList, n)
	}
	protoList := strings.Split(*protocols, ",")
	for i := range protoList {
		protoList[i] = strings.TrimSpace(protoList[i])
	}
	if *quick {
		connsList = []int{8}
		if !flagSet("dur") {
			*dur = 300 * time.Millisecond
		}
		if !flagSet("rate") {
			*rate = 800
		}
	}

	legs := buildLegs(protoList, connsList, *pipeline, *killRate)
	rows := make([]legRow, 0, len(legs))
	bad := 0
	for i, leg := range legs {
		row, err := runLeg(leg, *dur, *rate, *shards, *seed+int64(i))
		if err != nil {
			fmt.Fprintf(os.Stderr, "killload: leg %s conns=%d pipeline=%d kill=%d: %v\n",
				leg.protocol, leg.conns, leg.pipeline, leg.killRate, err)
			os.Exit(1)
		}
		if leg.killRate > 0 {
			// Goodput loss against the matched quiescent leg (same
			// protocol and connection count, no pipelining, no kills).
			for _, q := range rows {
				if q.Protocol == row.Protocol && q.Conns == row.Conns && q.Pipeline == 1 && q.KillRate == 0 && q.GoodputRPS > 0 {
					row.GoodputDeltaPct = 100 * (q.GoodputRPS - row.GoodputRPS) / q.GoodputRPS
				}
			}
		}
		rows = append(rows, row)
		status := "ok"
		if leg.killRate > 0 && (row.Wedged != 0 || row.SumDelta != 0) {
			status = "INTEGRITY VIOLATION"
			bad++
		}
		if *fence > 0 && leg.killRate > 0 && row.GoodputDeltaPct > *fence {
			status = fmt.Sprintf("FENCE EXCEEDED (%.1f%% > %.1f%%)", row.GoodputDeltaPct, *fence)
			bad++
		}
		fmt.Fprintf(os.Stderr,
			"[%d/%d] %-4s conns=%-4d pipe=%d kill=%-3d: %6.0f rps (goodput %6.0f) p50=%dus p99=%dus p999=%dus errs=%d kills=%d wedged=%d sumΔ=%d %s\n",
			i+1, len(legs), row.Protocol, row.Conns, row.Pipeline, row.KillRate,
			row.AchievedRPS, row.GoodputRPS, row.P50us, row.P99us, row.P999us,
			row.Errors, row.Kills, row.Wedged, row.SumDelta, status)
	}

	rep := report{
		Suite:       "wire-load",
		Description: "E23: wire-protocol latency under kill storms. Each leg self-hosts the sharded kill-safe server (internal/netsvc) with the transactional KV store behind the cross-runtime gateway and drives it over real TCP from plain-goroutine clients with open-loop pacing (latency measured from intended send time). Quiescent legs run a GET/SET mix over keep-alive connections per protocol (HTTP/1.1 and RESP) at each connection count; the pipelined leg batches requests into single writes; the kill-storm leg runs MULTI/EXEC pair transfers (disjoint pairs seeded 500/500, every transaction writes values summing to 1000) while a killer terminates random sessions over the wire via /chaos/kill. Storm oracles after quiescence: wedged (store audit residue) and sum_delta (pair-sum drift = half-commits) must be zero; goodput_delta_pct is the storm's goodput loss versus the matched quiescent leg.",
		Recorded:    time.Now().Format("2006-01-02"),
		Environment: map[string]any{
			"goos":       goruntime.GOOS,
			"goarch":     goruntime.GOARCH,
			"cpus":       goruntime.NumCPU(),
			"gomaxprocs": goruntime.GOMAXPROCS(0),
			"go":         goruntime.Version(),
			"command": fmt.Sprintf("go run ./cmd/killload -dur %s -conns %s -rate %.0f -pipeline %d -kill-rate %d (quick=%v)",
				*dur, *connsFlag, *rate, *pipeline, *killRate, *quick),
		},
		Legs: rows,
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "killload: marshal:", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "killload: write:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "%d legs -> %s\n", len(rows), *out)
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "FAIL: %d legs violated oracles or fences\n", bad)
		os.Exit(1)
	}
}

// flagSet reports whether the named flag was given explicitly.
func flagSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}
