package kvtxn

import (
	"fmt"

	"repro/internal/core"
)

// tmKind discriminates transaction-manager requests.
type tmKind int

const (
	tmBegin  tmKind = iota // register a locking transaction
	tmCommit               // hand off a commit plan; the manager owns its fate
	tmAbort                // explicit abort: release and retire
	tmRetire               // finisher/aborter: drop the registry entry
	tmAudit                // live-transaction count
)

// shardPlan is a transaction's footprint in one shard, assembled by the
// client at commit time. Plans are sorted by shard index so finishers
// acquire locks in a global order (no finisher/finisher deadlock) and so
// execution is deterministic under the virtual clock.
type shardPlan struct {
	shard   int
	reads   []readCheck // OCC validation entries
	writes  []writeOp
	touched bool // locking: client already holds read locks here
}

// txnReq is one request to the transaction manager.
type txnReq struct {
	kind   tmKind
	txn    uint64
	client *core.Thread // tmBegin: the owner whose death aborts the txn
	plan   []shardPlan  // tmCommit

	out    *core.Chan
	gaveUp core.Event
	res    core.Value
}

// txnRec is the registry entry for one live locking transaction.
type txnRec struct {
	client *core.Thread
	// committing means a finisher or aborter owns the transaction's fate;
	// the registry must not also react to the owner's death. Set in the
	// same manager action that observes the commit/abort/death, so exactly
	// one agent ever acts on a transaction.
	committing bool
}

// txnMgr is the store-wide transaction registry. It watches every live
// transaction owner's DoneEvt and spawns store-owned aborters for the
// dead — the reason a kill can wedge nothing — and it is the only spawner
// of commit finishers, which is the reason a commit, once handed off, is
// all-or-nothing regardless of what happens to the client.
type txnMgr struct {
	store *Store
	th    *core.Thread
	reqCh *core.Chan
}

func newTxnMgr(th *core.Thread, s *Store) *txnMgr {
	tm := &txnMgr{
		store: s,
		reqCh: core.NewChanNamed(s.rt, "kvtxn-tm-req"),
	}
	tm.th = th.Spawn("kvtxn-tm", tm.serve)
	return tm
}

func (tm *txnMgr) serve(mgr *core.Thread) {
	recs := make(map[uint64]*txnRec)
	var order []uint64 // registry iteration order: registration order
	var done []*txnReq

	removeDone := func(r *txnReq) {
		for i, x := range done {
			if x == r {
				done = append(done[:i], done[i+1:]...)
				return
			}
		}
	}
	retire := func(txn uint64) {
		if _, ok := recs[txn]; !ok {
			return
		}
		delete(recs, txn)
		for i, id := range order {
			if id == txn {
				order = append(order[:i], order[i+1:]...)
				return
			}
		}
	}

	handle := func(r *txnReq) {
		switch r.kind {
		case tmBegin:
			// Registered at dequeue: if the client dies before it even
			// receives this reply, the DoneEvt arm below cleans up.
			recs[r.txn] = &txnRec{client: r.client}
			order = append(order, r.txn)
			r.res = okReply{ok: true}
			done = append(done, r)
		case tmCommit:
			// The hand-off. From this action on, the transaction's fate
			// belongs to the finisher; the owner's death is irrelevant.
			if rec := recs[r.txn]; rec != nil {
				rec.committing = true
			}
			if tm.store.opts.Strategy == OCC {
				core.SpawnYoked(mgr, fmt.Sprintf("kvtxn-fin-%d", r.txn), func(fin *core.Thread) {
					tm.finishOCC(fin, r)
				})
			} else {
				core.SpawnYoked(mgr, fmt.Sprintf("kvtxn-fin-%d", r.txn), func(fin *core.Thread) {
					tm.finishLocking(fin, r)
				})
			}
		case tmAbort:
			if rec := recs[r.txn]; rec != nil {
				rec.committing = true
			}
			core.SpawnYoked(mgr, fmt.Sprintf("kvtxn-abort-%d", r.txn), func(ab *core.Thread) {
				tm.releaseEverywhere(ab, r.txn)
				_, _ = core.Sync(ab, core.Choice(r.out.SendEvt(okReply{ok: true}), r.gaveUp))
				tm.retire(ab, r.txn)
			})
		case tmRetire:
			retire(r.txn)
		case tmAudit:
			r.res = len(recs)
			done = append(done, r)
		}
	}

	for {
		evts := []core.Event{
			core.Wrap(tm.reqCh.RecvEvt(), func(v core.Value) core.Value {
				return func() { handle(v.(*txnReq)) }
			}),
		}
		for _, id := range order {
			id, rec := id, recs[id]
			if rec.committing {
				continue
			}
			// The breaker idiom, store-wide: a live transaction whose
			// owner dies is aborted by a store-owned thread. The aborter
			// is yoked to the manager, so it is as kill-safe as the
			// manager itself.
			evts = append(evts, core.Wrap(rec.client.DoneEvt(), func(core.Value) core.Value {
				return func() {
					rec.committing = true
					tm.store.ctr.KillAborts.Add(1)
					core.SpawnYoked(mgr, fmt.Sprintf("kvtxn-abort-%d", id), func(ab *core.Thread) {
						tm.releaseEverywhere(ab, id)
						tm.retire(ab, id)
					})
				}
			}))
		}
		for _, r := range done {
			r := r
			evts = append(evts, core.Wrap(r.out.SendEvt(r.res), func(core.Value) core.Value {
				return func() { removeDone(r) }
			}))
			if r.gaveUp != nil {
				evts = append(evts, core.Wrap(r.gaveUp, func(core.Value) core.Value {
					return func() { removeDone(r) }
				}))
			}
		}
		act, err := core.Sync(mgr, core.Choice(evts...))
		if err != nil {
			continue
		}
		act.(func())()
	}
}

// request is the client-side exchange with the transaction manager,
// nack-guarded like every store operation.
func (tm *txnMgr) request(th *core.Thread, req *txnReq) (core.Value, error) {
	ev := core.NackGuard(func(g *core.Thread, nack core.Event) core.Event {
		core.ResumeVia(tm.th, g)
		req.gaveUp = nack
		req.out = core.NewChanNamed(tm.store.rt, "kvtxn-tm-reply")
		if _, err := core.Sync(g, tm.reqCh.SendEvt(req)); err != nil {
			g.Break()
			return core.Never()
		}
		return req.out.RecvEvt()
	})
	return core.Sync(th, ev)
}

func (tm *txnMgr) liveCount(th *core.Thread) (int, error) {
	v, err := tm.request(th, &txnReq{kind: tmAudit})
	if err != nil {
		return 0, err
	}
	return v.(int), nil
}

// retire tells the manager to drop the registry entry; a no-op for
// transactions that were never registered (OCC).
func (tm *txnMgr) retire(th *core.Thread, txn uint64) {
	core.ResumeVia(tm.th, th)
	_, _ = core.Sync(th, tm.reqCh.SendEvt(&txnReq{kind: tmRetire, txn: txn}))
}

// releaseEverywhere releases txn's locks and prepare stashes in every
// shard. Used by aborters, which may not know the transaction's footprint
// (the owner died without telling anyone); release is idempotent.
func (tm *txnMgr) releaseEverywhere(th *core.Thread, txn uint64) {
	for _, sh := range tm.store.shards {
		_, _ = tm.store.shardRequest(th, sh, &shardReq{kind: reqRelease, txn: txn}, 0)
	}
}

// finishLocking drives a locking commit: acquire write locks shard by
// shard in sorted order (phase 1), then install and release (phase 2).
// The moment phase 1 completes, every key the transaction read or will
// write is exclusively locked, so the install is serializable; each key
// stays locked until the install request that writes it has been applied
// by its shard manager, so no reader can observe half a commit.
func (tm *txnMgr) finishLocking(fin *core.Thread, req *txnReq) {
	s := tm.store
	ok := true
	for _, p := range req.plan {
		if len(p.writes) == 0 {
			continue
		}
		keys := make([]string, len(p.writes))
		for i, w := range p.writes {
			keys[i] = w.key
		}
		v, err := s.shardRequest(fin, s.shards[p.shard], &shardReq{kind: reqLockKeys, txn: req.txn, keys: keys}, s.opts.LockWait)
		if err != nil {
			return // runtime going down; nothing installed, locks die with it
		}
		if _, timedOut := v.(lockTimeout); timedOut {
			ok = false
			break
		}
	}
	if ok {
		s.ctr.Commits.Add(1)
		if fn := s.opts.OnCommit; fn != nil {
			fn(req.txn)
		}
		for _, p := range req.plan {
			if len(p.writes) > 0 {
				if _, err := s.shardRequest(fin, s.shards[p.shard], &shardReq{kind: reqInstall, txn: req.txn, writes: p.writes}, 0); err != nil {
					return
				}
			} else if p.touched {
				if _, err := s.shardRequest(fin, s.shards[p.shard], &shardReq{kind: reqRelease, txn: req.txn}, 0); err != nil {
					return
				}
			}
		}
	} else {
		s.ctr.Aborts.Add(1)
		tm.releaseEverywhere(fin, req.txn)
	}
	_, _ = core.Sync(fin, core.Choice(req.out.SendEvt(okReply{ok: ok}), req.gaveUp))
	tm.retire(fin, req.txn)
}

// finishOCC drives a multi-shard OCC commit: prepare each shard in sorted
// order (validate the read-set, prepare-lock the write-set), then finish
// every shard with the common verdict. Prepare-marks make cross-shard
// installs opaque: any concurrent validator that touches a prepared key
// conflicts instead of seeing one shard new and another old.
func (tm *txnMgr) finishOCC(fin *core.Thread, req *txnReq) {
	s := tm.store
	ok := true
	for _, p := range req.plan {
		v, err := s.shardRequest(fin, s.shards[p.shard], &shardReq{kind: reqOCCPrepare, txn: req.txn, reads: p.reads, writes: p.writes}, 0)
		if err != nil {
			return
		}
		if !v.(okReply).ok {
			ok = false
			break
		}
	}
	for _, p := range req.plan {
		if _, err := s.shardRequest(fin, s.shards[p.shard], &shardReq{kind: reqOCCFinish, txn: req.txn, commitIt: ok}, 0); err != nil {
			return
		}
	}
	if ok {
		s.ctr.Commits.Add(1)
		if fn := s.opts.OnCommit; fn != nil {
			fn(req.txn)
		}
	} else {
		s.ctr.Aborts.Add(1)
	}
	_, _ = core.Sync(fin, core.Choice(req.out.SendEvt(okReply{ok: ok}), req.gaveUp))
}
