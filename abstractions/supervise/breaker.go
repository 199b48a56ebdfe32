package supervise

import (
	"errors"
	"sync"
	"time"

	"repro/abstractions/internal/guard"
	"repro/internal/core"
)

// ErrBreakerOpen is returned by Breaker.Do while the breaker is open (or
// half-open with its probe already outstanding).
var ErrBreakerOpen = errors.New("supervise: circuit breaker open")

// State is a breaker state, for diagnostics.
type State int

const (
	Closed State = iota
	Open
	HalfOpen
)

func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	}
	return "unknown"
}

// BreakerOptions configures a Breaker.
type BreakerOptions struct {
	// FailureThreshold is how many consecutive failures trip the breaker
	// while closed. Default 3.
	FailureThreshold int
	// Cooldown is how long the breaker stays open before a request may
	// probe (half-open). Default 100ms.
	Cooldown time.Duration
}

func (o BreakerOptions) withDefaults() BreakerOptions {
	if o.FailureThreshold == 0 {
		o.FailureThreshold = 3
	}
	if o.Cooldown == 0 {
		o.Cooldown = 100 * time.Millisecond
	}
	return o
}

// Breaker is a circuit breaker implemented the paper's way: all state —
// closed/open/half-open, the consecutive-failure count, the set of
// outstanding permits — lives in a single manager thread, so transitions
// appear atomic to every client and survive clients being killed
// mid-call. Acquiring a permit is a nack-guarded request/reply (the
// rpcsvc idiom): withdrawal (kill, break, lost choice) reliably excludes
// acceptance, so the manager never counts a permit the client never got.
// A client killed *while holding* a permit is detected through its
// DoneEvt and counted as a failure — the manager needs no cooperation
// from the corpse.
//
// The manager is a resumable service thread: each acquire yokes it to the
// caller (ResumeVia), so the breaker stays serviceable exactly as long as
// some client may run, and suspending every client suspends the breaker
// rather than wedging it in limbo.
//
// Open → half-open is decided lazily, by comparing the runtime clock to
// the trip time when the next request arrives; there is no timer thread,
// so in deterministic mode the transition is driven purely by
// virtual-clock advances.
type Breaker struct {
	rt    *core.Runtime
	reqCh *core.Chan
	mgr   *core.Thread
	opts  BreakerOptions

	mu    sync.Mutex
	state State
	trips int
}

type breakerReq struct {
	reply  *core.Chan
	gaveUp core.Event
	holder *core.Thread
}

// permit is what a granted client holds; reporting the call's outcome on
// resultCh returns it.
type permit struct {
	resultCh *core.Chan
}

type inflight struct {
	p      *permit
	holder *core.Thread
	probe  bool
}

type outcome struct {
	fl *inflight
	ok bool
}

// NewBreaker creates a breaker and spawns its manager thread under th's
// current custodian.
func NewBreaker(th *core.Thread, opts BreakerOptions) *Breaker {
	b := &Breaker{
		rt:    th.Runtime(),
		reqCh: core.NewChanNamed(th.Runtime(), "breaker-acquire"),
		opts:  opts.withDefaults(),
		state: Closed,
	}
	b.mgr = th.Spawn("breaker-manager", b.serve)
	return b
}

// Manager exposes the manager thread for tests and diagnostics.
func (b *Breaker) Manager() *core.Thread { return b.mgr }

// State returns the last state the manager committed. Because open →
// half-open happens lazily at the next request, State may still report
// Open after the cooldown has elapsed.
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Trips returns how many times the breaker has tripped open.
func (b *Breaker) Trips() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.trips
}

func (b *Breaker) noteState(s State, tripped bool) {
	b.mu.Lock()
	b.state = s
	if tripped {
		b.trips++
	}
	b.mu.Unlock()
}

func (b *Breaker) serve(mgr *core.Thread) {
	var (
		state     = Closed
		failures  int
		reopenAt  time.Time
		inflights []*inflight
		probeOut  bool
	)
	trip := func() {
		state = Open
		probeOut = false
		failures = 0
		reopenAt = b.rt.Now().Add(b.opts.Cooldown)
		b.noteState(Open, true)
	}
	for {
		evts := make([]core.Event, 0, 1+2*len(inflights))
		evts = append(evts, b.reqCh.RecvEvt())
		for _, fl := range inflights {
			fl := fl
			evts = append(evts,
				core.Wrap(fl.p.resultCh.RecvEvt(), func(v core.Value) core.Value { return outcome{fl, v.(bool)} }),
				// A holder that dies without reporting abandoned its call:
				// count it as a failure. Once the result is consumed the
				// inflight leaves this set, so a holder finishing *after*
				// reporting is not double-counted.
				core.Wrap(fl.holder.DoneEvt(), func(core.Value) core.Value { return outcome{fl, false} }),
			)
		}
		v, err := core.Sync(mgr, core.Choice(evts...))
		if err != nil {
			continue
		}
		switch x := v.(type) {
		case *breakerReq:
			if state == Open && !b.rt.Now().Before(reopenAt) {
				state = HalfOpen
				b.noteState(HalfOpen, false)
			}
			grant := state == Closed || (state == HalfOpen && !probeOut)
			if !grant {
				b.deliver(mgr, x, ErrBreakerOpen)
				continue
			}
			fl := &inflight{
				p:      &permit{resultCh: core.NewChanNamed(b.rt, "breaker-result")},
				holder: x.holder,
				probe:  state == HalfOpen,
			}
			if b.deliver(mgr, x, fl.p) {
				inflights = append(inflights, fl)
				if fl.probe {
					probeOut = true
				}
			}
		case outcome:
			for i, fl := range inflights {
				if fl == x.fl {
					inflights = append(inflights[:i], inflights[i+1:]...)
					break
				}
			}
			if x.fl.probe {
				probeOut = false
			}
			if x.ok {
				if state == HalfOpen && x.fl.probe {
					state = Closed
					b.noteState(Closed, false)
				}
				if state == Closed {
					failures = 0
				}
			} else {
				switch state {
				case Closed:
					failures++
					if failures >= b.opts.FailureThreshold {
						trip()
					}
				case HalfOpen:
					// The probe failed, or a stale closed-era call failed
					// while probing: back to open for another cooldown.
					trip()
				case Open:
					// Already open; a stale in-flight failure neither
					// extends nor resets the cooldown.
				}
			}
		}
	}
}

// deliver hands v (a permit or ErrBreakerOpen) to the requester, or
// learns that it gave up; the nack makes the two outcomes exclusive, so
// a client killed between sending the request and collecting the reply
// cannot wedge the manager or leak a permit.
func (b *Breaker) deliver(mgr *core.Thread, r *breakerReq, v core.Value) bool {
	for {
		got, err := core.Sync(mgr, core.Choice(
			core.Wrap(r.reply.SendEvt(v), func(core.Value) core.Value { return true }),
			core.Wrap(r.gaveUp, func(core.Value) core.Value { return false }),
		))
		if err == nil {
			return got.(bool)
		}
	}
}

// acquireEvt returns the event that acquires a permit (or learns the
// breaker is open); its value is either a *permit or ErrBreakerOpen.
// Abandoning the event withdraws the request.
func (b *Breaker) acquireEvt() core.Event {
	return core.NackGuard(func(th *core.Thread, gaveUp core.Event) core.Event {
		core.ResumeVia(b.mgr, th)
		reply := core.NewChanNamed(b.rt, "breaker-reply")
		return guard.RequestReply(th, b.reqCh, &breakerReq{reply: reply, gaveUp: gaveUp, holder: th}, reply)
	})
}

// Do runs fn under the breaker: it acquires a permit (returning
// ErrBreakerOpen without running fn if the breaker refuses), runs fn, and
// reports the outcome to the manager. A panic in fn is reported as a
// failure before it propagates; a kill needs no reporting — the manager
// observes the holder's DoneEvt and counts the abandonment as a failure.
func (b *Breaker) Do(th *core.Thread, fn func(*core.Thread) error) error {
	v, err := core.Sync(th, b.acquireEvt())
	if err != nil {
		return err
	}
	if e, ok := v.(error); ok {
		return e
	}
	p := v.(*permit)
	report := func(ok bool) {
		for {
			if _, serr := core.Sync(th, p.resultCh.SendEvt(ok)); serr == nil {
				return
			}
		}
	}
	reported := false
	defer func() {
		// Reached only when fn panicked (reported stays false) — a killed
		// thread must not re-enter Sync, and the manager learns of kills
		// through DoneEvt anyway.
		if !reported && !th.Killed() {
			report(false)
		}
	}()
	ferr := fn(th)
	reported = true
	report(ferr == nil)
	return ferr
}
