// Package supervise is the kill-safe supervision and resilience layer:
// a supervisor that runs each child service under its own sub-custodian
// and restarts it when it dies (by kill, crash, or custodian shutdown),
// plus resilience combinators — WithDeadline, Retry, and a circuit
// Breaker implemented paper-style as a resumable service thread.
//
// The supervisor inherits the paper's custodian discipline rather than
// fighting it: every child incarnation lives under a fresh custodian
// parented by the supervisor's own, so shutting the supervisor's
// custodian down takes the whole tree with it, and escalation (too many
// restarts inside the intensity window) is expressed as exactly that
// shutdown. Monitoring composes from first-class events: an incarnation
// has ended when Choice(child.DoneEvt(), childCust.DeadEvt()) is ready.
//
// All timing goes through core.After/core.Sleep, so under the
// deterministic scheduler (internal/explore) backoff and restart
// scheduling are driven entirely by the virtual clock and replay
// bit-identically.
package supervise

import (
	"sync"
	"time"

	"repro/internal/core"
)

// RestartPolicy says when a child is restarted after an incarnation ends.
type RestartPolicy int

const (
	// Permanent children are always restarted, even after a normal return.
	Permanent RestartPolicy = iota
	// Transient children are restarted only after an abnormal end: a
	// kill, a panic, or their custodian dying out from under them.
	Transient
	// Temporary children are never restarted.
	Temporary
)

func (p RestartPolicy) String() string {
	switch p {
	case Permanent:
		return "permanent"
	case Transient:
		return "transient"
	case Temporary:
		return "temporary"
	}
	return "unknown"
}

// Options configures a Supervisor.
type Options struct {
	// MaxRestarts is the restart-intensity ceiling: if more than this many
	// restarts (across all children) land inside Window, the supervisor
	// escalates by shutting down its own custodian. 0 means the default
	// (3); negative means unlimited.
	MaxRestarts int
	// Window is the sliding restart-intensity window and also the uptime
	// after which a child's backoff resets to BaseBackoff. Default 5s.
	Window time.Duration
	// BaseBackoff is the delay before the first restart of a child; it
	// doubles per consecutive restart up to MaxBackoff. 0 means the
	// default (10ms); negative means no backoff at all.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential backoff. Default 1s.
	MaxBackoff time.Duration
	// OnRestart, if set, is called from the monitor thread just before
	// each restart with the child name and the supervisor-wide restart
	// count so far. It must be plain non-blocking Go.
	OnRestart func(name string, restarts int)
}

func (o Options) withDefaults() Options {
	if o.MaxRestarts == 0 {
		o.MaxRestarts = 3
	}
	if o.Window == 0 {
		o.Window = 5 * time.Second
	}
	if o.BaseBackoff == 0 {
		o.BaseBackoff = 10 * time.Millisecond
	} else if o.BaseBackoff < 0 {
		o.BaseBackoff = 0
	}
	if o.MaxBackoff == 0 {
		o.MaxBackoff = time.Second
	}
	return o
}

// ChildSpec describes one supervised child service.
type ChildSpec struct {
	Name   string
	Policy RestartPolicy
	// Start is the child body; each incarnation runs it on a fresh thread
	// under a fresh custodian parented by the supervisor's custodian.
	Start func(*core.Thread)
}

// Supervisor restarts child services, one-for-one, under sub-custodians.
type Supervisor struct {
	rt   *core.Runtime
	cust *core.Custodian
	opts Options

	mu         sync.Mutex
	monitors   []*core.Thread
	children   map[string]*childState
	restartLog []time.Time
	restarts   int
	escalated  bool
}

type childState struct {
	th           *core.Thread
	cust         *core.Custodian
	incarnations int
}

// New creates a supervisor whose custodian is a child of th's current
// custodian, so the supervisor tree dies with whoever created it.
func New(th *core.Thread, opts Options) *Supervisor {
	return &Supervisor{
		rt:       th.Runtime(),
		cust:     core.NewCustodian(th.CurrentCustodian()),
		opts:     opts.withDefaults(),
		children: make(map[string]*childState),
	}
}

// Custodian is the supervisor's own custodian; shutting it down stops the
// supervisor and every child.
func (s *Supervisor) Custodian() *core.Custodian { return s.cust }

// DeadEvt is ready once the supervisor's custodian is dead — either an
// explicit Shutdown/Stop or an escalation. Like Custodian.DeadEvt it is
// level-triggered: once ready it stays ready.
func (s *Supervisor) DeadEvt() core.Event { return s.cust.DeadEvt() }

// Restarts returns the supervisor-wide restart count.
func (s *Supervisor) Restarts() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.restarts
}

// Escalated reports whether the supervisor shut itself down because the
// restart intensity exceeded MaxRestarts within Window.
func (s *Supervisor) Escalated() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.escalated
}

// ChildThread returns the current incarnation's thread for a child (nil
// before the first incarnation is spawned).
func (s *Supervisor) ChildThread(name string) *core.Thread {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cs := s.children[name]; cs != nil {
		return cs.th
	}
	return nil
}

// Incarnations returns how many times a child has been spawned.
func (s *Supervisor) Incarnations(name string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cs := s.children[name]; cs != nil {
		return cs.incarnations
	}
	return 0
}

// Start registers a child and spawns its monitor thread under the
// supervisor's custodian. One monitor per child: one-for-one supervision.
// Must be called from a runtime thread.
func (s *Supervisor) Start(th *core.Thread, spec ChildSpec) {
	var mon *core.Thread
	th.WithCustodian(s.cust, func() {
		mon = th.Spawn("sup-"+spec.Name, func(x *core.Thread) { s.supervise(x, spec) })
	})
	s.mu.Lock()
	s.monitors = append(s.monitors, mon)
	s.mu.Unlock()
}

// Stop shuts the supervisor down and reaps every thread it created —
// monitor threads and current child incarnations — so no goroutine is
// left parked. The custodian shutdown condemns the threads; the kills
// make them unwind without waiting for a TerminateCondemned sweep.
func (s *Supervisor) Stop() {
	s.cust.Shutdown()
	s.mu.Lock()
	ths := append([]*core.Thread(nil), s.monitors...)
	for _, cs := range s.children {
		if cs.th != nil {
			ths = append(ths, cs.th)
		}
	}
	s.mu.Unlock()
	for _, t := range ths {
		t.Kill()
	}
}

// supervise is the per-child monitor loop: spawn an incarnation under a
// fresh sub-custodian, wait for it to end, decide on a restart.
func (s *Supervisor) supervise(mon *core.Thread, spec ChildSpec) {
	backoff := s.opts.BaseBackoff
	for {
		ccust := core.NewCustodian(s.cust)
		if ccust.Dead() {
			return // the supervisor's custodian is already down
		}
		started := s.rt.Now()

		// normal is written by the child after its body returns; the
		// monitor reads it only after the child's DoneEvt commits, so the
		// write happens-before the read.
		var normal bool
		var child *core.Thread
		mon.WithCustodian(ccust, func() {
			child = mon.Spawn(spec.Name, func(x *core.Thread) {
				spec.Start(x)
				normal = true
			})
		})
		s.mu.Lock()
		cs := s.children[spec.Name]
		if cs == nil {
			cs = &childState{}
			s.children[spec.Name] = cs
		}
		cs.th, cs.cust = child, ccust
		cs.incarnations++
		s.mu.Unlock()

		// The incarnation has ended when its thread is done or its
		// custodian has died out from under it (leaving it suspended).
		for {
			if _, err := core.Sync(mon, core.Choice(child.DoneEvt(), ccust.DeadEvt())); err == nil {
				break
			}
		}
		// Tear the incarnation down completely before classifying the
		// exit: reap the custodian, kill the (possibly suspended) thread,
		// and wait for it to finish unwinding so `normal` is settled.
		ccust.Shutdown()
		child.Kill()
		for {
			if _, err := core.Sync(mon, child.DoneEvt()); err == nil {
				break
			}
		}
		abnormal := !normal || child.Err() != nil

		if spec.Policy == Temporary || (spec.Policy == Transient && !abnormal) {
			return
		}

		// Restart-intensity accounting over the sliding window, shared
		// across the supervisor's children.
		now := s.rt.Now()
		s.mu.Lock()
		keep := s.restartLog[:0]
		for _, t := range s.restartLog {
			if now.Sub(t) < s.opts.Window {
				keep = append(keep, t)
			}
		}
		s.restartLog = append(keep, now)
		intensity := len(s.restartLog)
		escalating := s.opts.MaxRestarts >= 0 && intensity > s.opts.MaxRestarts
		if !escalating {
			s.restarts++
		}
		total := s.restarts
		s.mu.Unlock()
		if escalating {
			s.escalate()
			return
		}
		if h := s.opts.OnRestart; h != nil {
			h(spec.Name, total)
		}

		// Exponential backoff, reset once an incarnation stayed up long
		// enough to count as healthy. A break during the sleep just cuts
		// the backoff short; the kill/shutdown cases end the monitor at
		// the sleep's safe point instead.
		if now.Sub(started) >= s.opts.Window {
			backoff = s.opts.BaseBackoff
		}
		if backoff > 0 {
			_ = core.Sleep(mon, backoff)
		}
		backoff *= 2
		if backoff > s.opts.MaxBackoff {
			backoff = s.opts.MaxBackoff
		}
	}
}

// escalate shuts down the supervisor's own custodian: every monitor and
// child incarnation is condemned, and DeadEvt observers learn that the
// supervisor has given up. The paper's discipline makes this a single
// primitive operation.
func (s *Supervisor) escalate() {
	s.mu.Lock()
	s.escalated = true
	s.mu.Unlock()
	s.cust.Shutdown()
}
