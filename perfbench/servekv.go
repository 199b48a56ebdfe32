package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/abstractions/kvtxn"
	"repro/internal/core"
	"repro/internal/netsvc"
	"repro/internal/obs"
	"repro/internal/web"
	"repro/internal/wire"
)

// serve-kv: HTTP/1.1 keep-alive over loopback to netsvc.ServeSharded, the
// store on shard 0 reached from every shard through kvtxn.Gateway and
// kvtxn.Mount. Each connection sends 90% GET over the whole key space and
// 10% PUT over its own key slice. An open-loop phase at a fixed rate gives
// latency; a closed-loop phase with a pipelined window gives throughput.

const (
	kvKeys = 1024
	// kvOpenRate is the open-loop phase's offered load in requests per
	// second over all connections, fixed, never derived at run time. On
	// the 2-core x86-64 host this was tuned on, unpipelined requests
	// saturate near 23,000/s and the pipelined closed loop near 50,000/s;
	// at 12,000/s requests already queued (p90 in milliseconds, varying
	// several-fold between runs), at 6,000/s the server is about a
	// quarter busy and p90 repeats within a few percent.
	kvOpenRate = 6000
	// kvWindow is the closed-loop phase's in-flight requests per
	// connection; key seeding uses the same batch size, so seeding never
	// raises the server's pipelining high-water mark above the workload's.
	kvWindow = 16
	// kvTrialSeconds is the measuring time of one server instance.
	kvTrialSeconds = 2
	kvIOTimeout    = 10 * time.Second
	kvReplaySize   = 4096 // requests whose bytes the traced run replays through the codec
)

// kvServer is one self-hosted serving fleet.
type kvServer struct {
	m     *netsvc.ShardedServer
	addr  string
	store *kvtxn.Store
}

func startKV(timing *kvTiming) (*kvServer, error) {
	gw := kvtxn.NewGateway()
	ks := &kvServer{}
	m, err := netsvc.ServeSharded(netsvc.Config{
		Shards:      runtime.GOMAXPROCS(0),
		MaxPending:  -1, // pure backpressure: no shedding in the latency tail
		IdleTimeout: 30 * time.Second,
		// Admission with a target far above any sojourn this load
		// produces: it never sheds, but it keeps the sojourn EWMA that
		// Stats reports.
		AdmitTarget: time.Second,
		Protocol:    "http",
	}, func(th *core.Thread, shard int) *web.Server {
		ws := web.NewServer(th)
		if shard == 0 {
			s := kvtxn.NewWith(th, kvtxn.Options{Strategy: kvtxn.Locking, Shards: 8})
			gw.Bind(th, s)
			ks.store = s
		}
		var c kvtxn.Client = gw
		if timing != nil {
			c = timedClient{Client: gw, shard: shard, t: timing}
		}
		kvtxn.Mount(ws, c, "/kv")
		return ws
	})
	if err != nil {
		return nil, err
	}
	ks.m = m
	ks.addr = m.Addr().String()
	return ks, nil
}

func (ks *kvServer) close() error { return ks.m.Shutdown(time.Second) }

// kvTiming times the servlet's calls into the store from outside: a
// wrapper around the Gateway handed to kvtxn.Mount.
type kvTiming struct {
	on     atomic.Bool
	mu     sync.Mutex
	lanes  []*lane // one per serving shard while a traced phase runs
	local  atomic.Int64
	remote atomic.Int64
}

func (t *kvTiming) start(tr *tracer, shards int) {
	t.mu.Lock()
	t.lanes = make([]*lane, shards)
	for i := range t.lanes {
		t.lanes[i] = tr.lane()
	}
	t.mu.Unlock()
	t.local.Store(0)
	t.remote.Store(0)
	t.on.Store(true)
}

func (t *kvTiming) stop() {
	t.on.Store(false)
	t.mu.Lock()
	for _, l := range t.lanes {
		l.flush()
	}
	t.lanes = nil
	t.mu.Unlock()
}

func (t *kvTiming) record(shard int, name string, start time.Time) {
	end := time.Now()
	if shard == 0 {
		t.local.Add(1)
	} else {
		t.remote.Add(1)
	}
	t.mu.Lock()
	if shard < len(t.lanes) {
		t.lanes[shard].leaf(name, 0, start, end)
	}
	t.mu.Unlock()
}

type timedClient struct {
	kvtxn.Client
	shard int
	t     *kvTiming
}

func (c timedClient) Get(th *core.Thread, key string) (string, bool, error) {
	if !c.t.on.Load() {
		return c.Client.Get(th, key)
	}
	start := time.Now()
	v, found, err := c.Client.Get(th, key)
	c.t.record(c.shard, "kvtxn.client.get", start)
	return v, found, err
}

func (c timedClient) Put(th *core.Thread, key, val string) error {
	if !c.t.on.Load() {
		return c.Client.Put(th, key, val)
	}
	start := time.Now()
	err := c.Client.Put(th, key, val)
	c.t.record(c.shard, "kvtxn.client.put", start)
	return err
}

func keyName(dst []byte, k int) []byte {
	dst = append(dst, 'k')
	for d := 1000; d > 0; d /= 10 {
		dst = append(dst, byte('0'+k/d%10))
	}
	return dst
}

func appendPut(dst []byte, key int, seq int64) []byte {
	dst = append(dst, "PUT /kv?key="...)
	dst = keyName(dst, key)
	dst = append(dst, "&val="...)
	dst = keyName(dst, key)
	dst = append(dst, '.')
	dst = strconv.AppendInt(dst, seq, 10)
	return append(dst, " HTTP/1.1\r\n\r\n"...)
}

func appendGet(dst []byte, key int) []byte {
	dst = append(dst, "GET /kv?key="...)
	dst = keyName(dst, key)
	return append(dst, " HTTP/1.1\r\n\r\n"...)
}

// seedKV writes every key's initial value (seq 0) over one connection,
// kvWindow requests per write, verifying each reply.
func seedKV(addr string) error {
	c, err := net.DialTimeout("tcp", addr, kvIOTimeout)
	if err != nil {
		return err
	}
	defer c.Close()
	k := &kvClient{c: c, br: bufio.NewReaderSize(c, 64<<10), last: make([]int64, kvKeys)}
	for start := 0; start < kvKeys; start += kvWindow {
		k.wbuf = k.wbuf[:0]
		for key := start; key < start+kvWindow && key < kvKeys; key++ {
			k.wbuf = appendPut(k.wbuf, key, 0)
			k.pend = append(k.pend, kvPending{put: true, key: key})
		}
		if err := k.flush(time.Now()); err != nil {
			return err
		}
		for len(k.pend) > 0 {
			if err := k.readOne(nil); err != nil {
				return err
			}
		}
	}
	if k.bad > 0 {
		return fmt.Errorf("seeding: %s", k.firstErr)
	}
	return nil
}

// kvPending is one request in flight on a connection.
type kvPending struct {
	put       bool
	key       int
	want      int64 // PUT: its seq; GET of an own key: the seq it must read; else -1
	due, sent time.Time
}

// kvClient is one keep-alive connection and the load it generates. A
// connection PUTs only keys k with k % conns == id, so the value a GET of
// such a key must return is known exactly: the server serves a
// connection's requests in order.
type kvClient struct {
	id, conns int
	c         net.Conn
	br        *bufio.Reader
	rng       *rand.Rand
	own       []int
	last      []int64 // per key: seq of this connection's last PUT sent, -1 if not its key
	seq       int64
	wbuf      []byte
	body      []byte
	pend      []kvPending

	sentBytes, recvBytes int64
	good, bad            int64
	firstErr             string

	pacer *pacer
	lane  *lane  // traced phases: one span per request
	rec   *kvRec // traced closed phase: request and reply bytes for codec replay
}

// kvRec keeps the first writes of a traced phase, each as the chunk of
// requests it put on the wire, and the replies to them.
type kvRec struct {
	chunks [][]byte
	resps  []web.Response
	n      int // requests in chunks
}

func dialKV(addr string, id, conns int, seed int64) (*kvClient, error) {
	c, err := net.DialTimeout("tcp", addr, kvIOTimeout)
	if err != nil {
		return nil, err
	}
	p, err := newPacer()
	if err != nil {
		c.Close()
		return nil, err
	}
	k := &kvClient{
		id: id, conns: conns, c: c, pacer: p,
		br:   bufio.NewReaderSize(c, 64<<10),
		rng:  rand.New(rand.NewSource(seed)),
		last: make([]int64, kvKeys),
	}
	for key := range k.last {
		k.last[key] = -1
		if key%conns == id {
			k.own = append(k.own, key)
			k.last[key] = 0 // the seeded value
		}
	}
	return k, nil
}

func (k *kvClient) close() {
	_ = k.c.Close() // the run is over; nothing is left unread
	_ = k.pacer.close()
}

// appendOp draws the next operation from the connection's seeded stream.
func (k *kvClient) appendOp(due time.Time) {
	p := kvPending{due: due}
	if k.rng.Intn(10) == 0 {
		p.put, p.key = true, k.own[k.rng.Intn(len(k.own))]
		k.seq++
		p.want = k.seq
		k.last[p.key] = k.seq
		k.wbuf = appendPut(k.wbuf, p.key, p.want)
	} else {
		p.key = k.rng.Intn(kvKeys)
		p.want = k.last[p.key]
		k.wbuf = appendGet(k.wbuf, p.key)
	}
	k.pend = append(k.pend, p)
}

// flush writes the batched requests and stamps the unsent ones.
func (k *kvClient) flush(now time.Time) error {
	if len(k.wbuf) == 0 {
		return nil
	}
	_ = k.c.SetWriteDeadline(now.Add(kvIOTimeout))
	n, err := k.c.Write(k.wbuf)
	k.sentBytes += int64(n)
	if err != nil {
		return fmt.Errorf("write: %w", err)
	}
	sent := time.Now()
	i := len(k.pend)
	for i > 0 && k.pend[i-1].sent.IsZero() {
		i--
		k.pend[i].sent = sent
	}
	if k.rec != nil && k.rec.n < kvReplaySize {
		k.rec.chunks = append(k.rec.chunks, append([]byte(nil), k.wbuf...))
		k.rec.n += len(k.pend) - i
	}
	k.wbuf = k.wbuf[:0]
	return nil
}

func (k *kvClient) failf(format string, args ...any) {
	k.bad++
	if k.firstErr == "" {
		k.firstErr = fmt.Sprintf(format, args...)
	}
}

// connLoad is what one connection measured in one phase; offsets are
// from the phase start.
type connLoad struct {
	start  time.Time
	dur    time.Duration
	lat    latencies // open loop: due to reply
	lag    latencies // open loop: due to send
	halves [2]struct {
		sum time.Duration
		n   int64
	} // open loop: send lag over each half of the phase
	done   counts // closed loop: verified replies before the deadline
	rttSum time.Duration
	rttN   int64
}

func newConnLoad(start time.Time, d time.Duration) *connLoad {
	return &connLoad{start: start, dur: d, lat: newLatencies(d), lag: newLatencies(d), done: newCounts(d)}
}

// backlogGrew reports whether the connection fell further and further
// behind its schedule: its mean send lag over the second half of the
// phase is above 5 ms and more than twice that over the first half.
func (m *connLoad) backlogGrew() bool {
	h, t := m.halves[0], m.halves[1]
	if h.n == 0 || t.n == 0 {
		return false
	}
	head, tail := h.sum/time.Duration(h.n), t.sum/time.Duration(t.n)
	return tail > 5*time.Millisecond && tail > 2*head
}

// readOne reads and verifies the oldest outstanding reply and records its
// latency in m (when non-nil).
func (k *kvClient) readOne(m *connLoad) error {
	_ = k.c.SetReadDeadline(time.Now().Add(kvIOTimeout))
	status, err := k.readHTTP()
	if err != nil {
		return fmt.Errorf("read: %w", err)
	}
	now := time.Now()
	p := k.pend[0]
	k.pend = k.pend[1:]
	if m != nil {
		m.lat.add(p.due.Sub(m.start), now.Sub(p.due))
		m.rttSum += now.Sub(p.sent)
		m.rttN++
	}
	if k.lane != nil {
		name := "http.get"
		if p.put {
			name = "http.put"
		}
		k.lane.leaf(name, uint64(k.id)<<48|uint64(k.good+k.bad), p.sent, now)
	}
	if k.rec != nil && len(k.rec.resps) < k.rec.n {
		k.rec.resps = append(k.rec.resps, web.Response{Status: status, Body: string(k.body)})
	}
	k.verify(p, status)
	return nil
}

func (k *kvClient) verify(p kvPending, status int) {
	if status != 200 {
		k.failf("key %d put=%v: status %d %q", p.key, p.put, status, k.body)
		return
	}
	if p.put {
		if string(k.body) != "OK" {
			k.failf("PUT key %d: body %q", p.key, k.body)
			return
		}
		k.good++
		return
	}
	name := keyName(nil, p.key)
	b := k.body
	if len(b) < len(name)+2 || !bytes.Equal(b[:len(name)], name) || b[len(name)] != '.' {
		k.failf("GET key %d: value %q", p.key, b)
		return
	}
	seq, err := strconv.ParseInt(string(b[len(name)+1:]), 10, 64)
	if err != nil || seq < 0 || (p.want >= 0 && seq != p.want) {
		k.failf("GET key %d: read %q, last PUT on this connection wrote seq %d", p.key, b, p.want)
		return
	}
	k.good++
}

// readHTTP reads one response into k.body and returns its status.
func (k *kvClient) readHTTP() (int, error) {
	line, err := k.br.ReadSlice('\n')
	if err != nil {
		return 0, err
	}
	k.recvBytes += int64(len(line))
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return 0, fmt.Errorf("bad status line %q", line)
	}
	status, err := strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, fmt.Errorf("bad status line %q", line)
	}
	n := -1
	for {
		h, err := k.br.ReadSlice('\n')
		if err != nil {
			return 0, err
		}
		k.recvBytes += int64(len(h))
		h = bytes.TrimRight(h, "\r\n")
		if len(h) == 0 {
			break
		}
		if name, v, ok := bytes.Cut(h, []byte(":")); ok && bytes.EqualFold(name, []byte("Content-Length")) {
			if n, err = strconv.Atoi(string(bytes.TrimSpace(v))); err != nil {
				return 0, fmt.Errorf("bad Content-Length %q", v)
			}
		}
	}
	if n < 0 {
		return 0, fmt.Errorf("response without Content-Length")
	}
	if cap(k.body) < n {
		k.body = make([]byte, n)
	}
	k.body = k.body[:n]
	if _, err := io.ReadFull(k.br, k.body); err != nil {
		return 0, err
	}
	k.recvBytes += int64(n)
	return status, nil
}

// openLoop sends requests on a fixed schedule from m.start to end, every
// request that is due going out in one write, and records each request's
// send lag and its reply's latency, both from the due time.
func (k *kvClient) openLoop(m *connLoad, end time.Time, interval time.Duration) error {
	due := m.start.Add(time.Duration(k.id) * interval / time.Duration(k.conns))
	for due.Before(end) {
		now := time.Now()
		if now.Before(due) {
			if len(k.pend) > 0 {
				if err := k.readOne(m); err != nil {
					return err
				}
				continue
			}
			if err := k.pacer.wait(due.Sub(now)); err != nil {
				return err
			}
			continue
		}
		first := len(k.pend)
		for !due.After(now) && due.Before(end) {
			k.appendOp(due)
			due = due.Add(interval)
		}
		if err := k.flush(now); err != nil {
			return err
		}
		for _, p := range k.pend[first:] {
			at, lag := p.due.Sub(m.start), p.sent.Sub(p.due)
			m.lag.add(at, lag)
			half := &m.halves[min(int(2*at/m.dur), 1)]
			half.sum += lag
			half.n++
		}
	}
	for len(k.pend) > 0 {
		if err := k.readOne(m); err != nil {
			return err
		}
	}
	return nil
}

// closedLoop keeps window requests in flight until end, counting the
// verified replies.
func (k *kvClient) closedLoop(m *connLoad, end time.Time, window int) error {
	for {
		now := time.Now()
		if now.Before(end) && len(k.pend) < window && k.br.Buffered() == 0 {
			for len(k.pend) < window {
				k.appendOp(now)
			}
			if err := k.flush(now); err != nil {
				return err
			}
		}
		if len(k.pend) == 0 {
			return nil
		}
		good := k.good
		if err := k.readOne(nil); err != nil {
			return err
		}
		if now := time.Now(); k.good > good && now.Before(end) {
			m.done.add(now.Sub(m.start))
		}
	}
}

// kvPhase is what one load phase measured over all connections.
type kvPhase struct {
	dur         time.Duration
	ops         int64 // replies read
	lat, lag    latencies
	done        counts
	rtt         time.Duration // mean send to reply
	sent, recvd int64         // bytes
	backlog     bool          // some connection fell further and further behind
}

// runPhase runs loop on every connection concurrently, one goroutine per
// connection, and merges what they measured.
func runPhase(clients []*kvClient, d time.Duration, loop func(*kvClient, *connLoad) error) (*kvPhase, error) {
	start := time.Now().Add(time.Millisecond)
	loads := make([]*connLoad, len(clients))
	errs := make([]error, len(clients))
	before := snapClients(clients)
	var wg sync.WaitGroup
	for i, k := range clients {
		loads[i] = newConnLoad(start, d)
		wg.Add(1)
		go func(k *kvClient, m *connLoad, err *error) {
			defer wg.Done()
			*err = loop(k, m)
		}(k, loads[i], &errs[i])
	}
	wg.Wait()
	after := snapClients(clients)
	ph := &kvPhase{
		dur:   d,
		ops:   after.replies - before.replies,
		sent:  after.sent - before.sent,
		recvd: after.recvd - before.recvd,
		lat:   newLatencies(d),
		lag:   newLatencies(d),
		done:  newCounts(d),
	}
	var rttSum time.Duration
	var rttN int64
	for _, m := range loads {
		ph.lat.merge(m.lat)
		ph.lag.merge(m.lag)
		ph.done.merge(m.done)
		rttSum += m.rttSum
		rttN += m.rttN
		ph.backlog = ph.backlog || m.backlogGrew()
	}
	if rttN > 0 {
		ph.rtt = rttSum / time.Duration(rttN)
	}
	return ph, errors.Join(errs...)
}

func openPhase(clients []*kvClient, d time.Duration) (*kvPhase, error) {
	interval := time.Duration(float64(time.Second) * float64(len(clients)) / kvOpenRate)
	return runPhase(clients, d, func(k *kvClient, m *connLoad) error {
		return k.openLoop(m, m.start.Add(d), interval)
	})
}

func closedPhase(clients []*kvClient, d time.Duration) (*kvPhase, error) {
	return runPhase(clients, d, func(k *kvClient, m *connLoad) error {
		return k.closedLoop(m, m.start.Add(d), kvWindow)
	})
}

type clientSnap struct{ replies, sent, recvd int64 }

func snapClients(clients []*kvClient) clientSnap {
	var s clientSnap
	for _, k := range clients {
		s.replies += k.good + k.bad
		s.sent += k.sentBytes
		s.recvd += k.recvBytes
	}
	return s
}

// kvInstance starts a fleet, seeds its keys (the timed set-up) and dials
// the load connections.
func kvInstance(rng *rand.Rand, timing *kvTiming) (*kvServer, []*kvClient, time.Duration, error) {
	t0 := time.Now()
	srv, err := startKV(timing)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("start server: %w", err)
	}
	if err := seedKV(srv.addr); err != nil {
		_ = srv.close() // the seeding error is the one to report
		return nil, nil, 0, fmt.Errorf("seed keys: %w", err)
	}
	setup := time.Since(t0)
	conns := runtime.GOMAXPROCS(0)
	var clients []*kvClient
	for i := 0; i < conns; i++ {
		k, err := dialKV(srv.addr, i, conns, rng.Int63())
		if err != nil {
			_ = closeKV(srv, clients)
			return nil, nil, 0, fmt.Errorf("dial: %w", err)
		}
		clients = append(clients, k)
	}
	return srv, clients, setup, nil
}

// closeKV hangs up the connections and shuts the fleet down.
func closeKV(srv *kvServer, clients []*kvClient) error {
	for _, k := range clients {
		k.close()
	}
	return srv.close()
}

// checkKV accounts an instance's replies and records its correctness
// violations: a reply that failed verification, an accept-loop restart,
// a shed request, or an open-loop backlog that grew.
func checkKV(o *outcome, srv *kvServer, clients []*kvClient, stats0 netsvc.StatsSnapshot, phases ...*kvPhase) {
	for _, k := range clients {
		o.attempted += k.good + k.bad
		o.failed += k.bad
		if k.firstErr != "" {
			o.fail("connection %d: %s (%d bad replies)", k.id, k.firstErr, k.bad)
		}
	}
	st := srv.m.Stats()
	if r := st.Restarts - stats0.Restarts; r != 0 {
		o.fail("%d netsvc accept-loop restarts", r)
	}
	if st.AdmShed+st.Shed > 0 {
		o.fail("server shed %d connections and %d requests", st.Shed, st.AdmShed)
	}
	for _, ph := range phases {
		if ph != nil && ph.backlog {
			o.fail("open-loop backlog grew: the generator fell behind the %d req/s schedule", kvOpenRate)
		}
	}
}

func runServeKV(rc runConfig) *outcome {
	o := newOutcome()
	conns := runtime.GOMAXPROCS(0)
	o.params["connections"] = conns
	o.params["shards"] = conns
	o.params["keys"] = kvKeys
	o.params["mix"] = "90% GET over all keys, 10% PUT over the connection's own keys"
	o.params["open_rate_rps"] = kvOpenRate
	o.params["open_pipeline"] = 1
	o.params["closed_window"] = kvWindow
	o.params["store"] = "kvtxn.Locking, 8 shards, on serving shard 0 behind kvtxn.Gateway"
	rng := rand.New(rand.NewSource(rc.seed))
	if rc.trace {
		traceServeKV(rc, o, rng)
		return o
	}

	// One server instance per trial: how a run of the client and server
	// goroutines lands on the cores differs from instance to instance
	// more than from second to second, so every figure is the median
	// over the trials.
	trials := max(1, int(math.Round(rc.seconds/kvTrialSeconds)))
	per := rc.seconds / float64(trials)
	warm := time.Duration(per * 0.04 * float64(time.Second))
	d := time.Duration(per * 0.46 * float64(time.Second))
	o.params["trials"] = trials
	o.params["phase_s"] = d.Seconds()
	var setups, rps, p50s, p90s, p99s, lag50s, lag99s []float64
	var samples int64
	for t := 0; t < trials; t++ {
		srv, clients, setup, err := kvInstance(rng, nil)
		if err != nil {
			o.fail("%v", err)
			return o
		}
		stats0 := srv.m.Stats()
		var open, closed *kvPhase
		_, err = closedPhase(clients, warm)
		if err == nil {
			open, err = openPhase(clients, d)
		}
		if err == nil {
			closed, err = closedPhase(clients, d)
		}
		checkKV(o, srv, clients, stats0, open)
		if cerr := closeKV(srv, clients); cerr != nil {
			o.fail("server shutdown: %v", cerr)
		}
		if err != nil {
			o.fail("connection: %v", err)
			return o
		}
		setups = append(setups, setup.Seconds())
		rps = append(rps, closed.done.rate(d))
		p50s = append(p50s, us(open.lat.quantile(0.5)))
		p90s = append(p90s, us(open.lat.quantile(0.9)))
		p99s = append(p99s, us(open.lat.quantile(0.99)))
		lag50s = append(lag50s, us(open.lag.quantile(0.5)))
		lag99s = append(lag99s, us(open.lag.quantile(0.99)))
		samples += open.lat.count()
	}
	o.e2e["setup_s"] = median(setups)
	o.e2e["ops_per_s"] = median(rps)
	o.e2e["op_p50_us"] = median(p50s)
	o.e2e["op_p90_us"] = median(p90s)
	o.name("peak_rps", median(rps), "req/s", "higher")
	o.name("lat_p50_us", median(p50s), "us", "lower")
	o.name("lat_p90_us", median(p90s), "us", "lower")
	o.name("lat_p99_us", median(p99s), "us", "lower")
	o.name("gen.lag_p50_us", median(lag50s), "us", "lower")
	o.name("gen.lag_p99_us", median(lag99s), "us", "lower")
	o.notes = append(o.notes, fmt.Sprintf(
		"lat_p50_us %.1f includes the generator's own send lag (p50 %.1f us, p99 %.1f us); "+
			"%d open-loop samples over %d trials; each figure is the median over trials of the median over one-second windows",
		median(p50s), median(lag50s), median(lag99s), samples, trials))
	o.notes = append(o.notes, fmt.Sprintf("per trial: ops_per_s %.0f; lat_p50_us %.1f; lat_p90_us %.1f; lat_p99_us %.0f", rps, p50s, p90s, p99s))
	return o
}

// traceServeKV is the traced run: one instance, an open-loop and a
// closed-loop phase with spans, then an untraced closed-loop phase for
// the tracing overhead.
func traceServeKV(rc runConfig, o *outcome, rng *rand.Rand) {
	timing := &kvTiming{}
	srv, clients, _, err := kvInstance(rng, timing)
	if err != nil {
		o.fail("%v", err)
		return
	}
	stats0 := srv.m.Stats()
	var open *kvPhase
	defer func() {
		checkKV(o, srv, clients, stats0, open)
		if err := closeKV(srv, clients); err != nil {
			o.fail("server shutdown: %v", err)
		}
	}()
	if _, err := closedPhase(clients, rc.phase(0.04, 0)); err != nil {
		o.fail("connection: %v", err)
		return
	}
	shards0 := srv.m.ShardStats()
	obs0 := srv.m.ObsSnapshot()
	kv0 := srv.store.Counters()
	runtime.GC() // the previous phase's garbage is not collected on this one's clock
	p0 := readProc()

	d := rc.phase(0.32, 0)
	traced := func(tr *tracer, run func() (*kvPhase, error)) (*kvPhase, error) {
		timing.start(tr, len(clients))
		for _, k := range clients {
			k.lane = tr.lane()
		}
		ph, err := run()
		timing.stop()
		for _, k := range clients {
			k.lane.flush()
			k.lane = nil
		}
		return ph, err
	}
	trOpen, trClosed := newTracer(), newTracer()
	if open, err = traced(trOpen, func() (*kvPhase, error) { return openPhase(clients, d) }); err != nil {
		o.fail("connection: %v", err)
		return
	}
	sojourn := srv.m.Stats().SojournEWMAus
	rec := &kvRec{}
	clients[0].rec = rec
	closed, err := traced(trClosed, func() (*kvPhase, error) { return closedPhase(clients, d) })
	clients[0].rec = nil
	if err != nil {
		o.fail("connection: %v", err)
		return
	}
	p1 := readProc()
	ops := open.ops + closed.ops
	kvLayers(o, srv, open, closed, ops, trOpen, timing, rec, shards0, obs0, kv0)
	procLayer(o, p0, p1, ops)
	o.layer["netsvc.sojourn_us"] = float64(sojourn)
	o.layer["gen.lag_p50_us"] = us(open.lag.quantile(0.5))
	o.layer["gen.lag_p99_us"] = us(open.lag.quantile(0.99))
	untraced, err := closedPhase(clients, d)
	if err != nil {
		o.fail("connection: %v", err)
		return
	}
	o.layer["trace.overhead"] = ratio(closed.done.rate(d), untraced.done.rate(d))
	for _, w := range []struct {
		tr   *tracer
		stem string
	}{{trOpen, "-open"}, {trClosed, "-closed"}} {
		if err := w.tr.write(rc.outDir, rc.stem()+w.stem); err != nil {
			o.notes = append(o.notes, "spans not written: "+err.Error())
		}
	}
}

// kvLayers fills the per-layer metrics of a traced serve-kv run.
func kvLayers(o *outcome, srv *kvServer, open, closed *kvPhase, ops int64,
	trOpen *tracer, timing *kvTiming, rec *kvRec,
	shards0 []netsvc.StatsSnapshot, obs0 obs.Snapshot, kv0 kvtxn.Counters) {
	n := float64(ops)
	get, put := trOpen.get("kvtxn.client.get"), trOpen.get("kvtxn.client.put")
	kvMean := ratio(float64(get.total+put.total)/1e3, float64(get.count+put.count))
	o.layer["netsvc.outside_kv_us"] = us(open.rtt) - kvMean
	o.layer["kvtxn.client_get_us"] = get.meanUS()
	o.layer["kvtxn.client_put_us"] = put.meanUS()
	// The remote share is taken over the closed phase's calls, the last
	// the timing wrapper saw.
	o.layer["kvtxn.remote_share"] = ratio(float64(timing.remote.Load()), float64(timing.local.Load()+timing.remote.Load()))

	o.layer["netsvc.pipeline_hwm"] = float64(srv.m.Stats().PipelineHWM)
	var total, most int64
	for i, s := range srv.m.ShardStats() {
		d := s.Requests - shards0[i].Requests
		total += d
		most = max(most, d)
	}
	o.layer["netsvc.shard_max_share"] = ratio(float64(most), float64(total))
	o.layer["wire.bytes_per_op"] = ratio(float64(open.sent+open.recvd+closed.sent+closed.recvd), n)
	o.layer["wire.parse_ns"], o.layer["wire.append_ns"] = replayWire(rec)

	kv := srv.store.Counters()
	o.layer["kvtxn.conflict_abort_ratio"] = ratio(float64(kv.Aborts-kv0.Aborts), n)
	coreLayers(o, obs0, srv.m.ObsSnapshot(), n)
}

// coreLayers fills the core.* per-op counters from two obs snapshots.
func coreLayers(o *outcome, a, b obs.Snapshot, ops float64) {
	syncs := float64(b.Syncs - a.Syncs)
	o.layer["core.syncs_per_op"] = ratio(syncs, ops)
	o.layer["core.fast_sync_share"] = ratio(float64(b.SyncFast-a.SyncFast), syncs)
	o.layer["core.wakes_per_op"] = ratio(float64(b.CommitWakes-a.CommitWakes), ops)
	o.layer["core.blocks_per_op"] = ratio(float64(b.Blocks-a.Blocks), ops)
	o.layer["core.spawns_per_op"] = ratio(float64(b.Spawns-a.Spawns), ops)
	o.layer["core.alarm_fires_per_op"] = ratio(float64(b.AlarmFires-a.AlarmFires), ops)
}

// replayWire times the HTTP codec on the traced closed phase's recorded
// traffic: Parse on each write's bytes, frame by frame, as the server
// meets a pipelined chunk, and AppendResponse on each reply.
func replayWire(rec *kvRec) (parseNS, appendNS float64) {
	factory, err := wire.New("http", wire.Options{})
	if err != nil || rec == nil || len(rec.resps) == 0 {
		return 0, 0
	}
	codec := factory()
	frames := make([]*wire.Frame, 0, rec.n)
	const reps = 20
	var parse, app time.Duration
	var dst []byte
	for r := 0; r < reps; r++ {
		frames = frames[:0]
		t0 := time.Now()
		for _, buf := range rec.chunks {
			for {
				f, rest, err := codec.Parse(buf)
				if err != nil || f == nil {
					break
				}
				frames = append(frames, f)
				buf = rest
			}
		}
		parse += time.Since(t0)
		n := min(len(frames), len(rec.resps))
		t0 = time.Now()
		for i, f := range frames[:n] {
			dst = codec.AppendResponse(dst[:0], f, rec.resps[i], false)
		}
		app += time.Since(t0)
	}
	return ratio(float64(parse), float64(len(frames)*reps)), ratio(float64(app), float64(min(len(frames), len(rec.resps))*reps))
}
