package obs

import "sync/atomic"

// Metrics is the always-on counter core: one cache-friendly block of
// atomic counters incremented from the runtime's instrumentation taps.
// Increments are single atomic adds — no locks, no allocation — so the
// cost of leaving metrics enabled on a serving runtime is a handful of
// uncontended atomic ops per scheduler event.
//
// Counters are monotonic; gauges (live threads) are derived in
// Obs.Snapshot from counter differences so the hot path never needs a
// decrement-paired-with-increment invariant.
type Metrics struct {
	// Thread lifecycle.
	Spawns    atomic.Int64 // threads created
	Dones     atomic.Int64 // threads finished (returned or unwound a kill)
	Kills     atomic.Int64 // threads killed (subset of Dones once unwound)
	Suspends  atomic.Int64 // explicit suspensions
	Resumes   atomic.Int64 // explicit resumptions
	Condemned atomic.Int64 // threads that lost their last custodian
	Yokes     atomic.Int64 // ResumeVia/SpawnYoked yokings
	Breaks    atomic.Int64 // break signals delivered

	// Scheduling.
	CommitWakes atomic.Int64 // Runnable taps: wake-ups of parked threads
	Blocks      atomic.Int64 // threads parking on their condition variable
	Pauses      atomic.Int64 // safe points passed (gate/park exits)

	// Rendezvous.
	Syncs     atomic.Int64 // committed rendezvous
	SyncFast  atomic.Int64 // single-event fast-path commits (cases == 1)
	SyncMulti atomic.Int64 // multi-event choice commits (cases > 1)

	// Alarms and custodians.
	AlarmFires         atomic.Int64 // alarm (timer or virtual clock) wakes
	CustodianShutdowns atomic.Int64 // custodians shut down
	CustodianSwept     atomic.Int64 // threads directly controlled at shutdown
}

// Snapshot is a point-in-time copy of the counters plus derived gauges,
// JSON-ready for the admin surface. Every field sums under Fold.
type Snapshot struct {
	Spawns    int64 `json:"spawns"`
	Dones     int64 `json:"dones"`
	Kills     int64 `json:"kills"`
	Exits     int64 `json:"exits"` // normal returns: dones - kills
	Suspends  int64 `json:"suspends"`
	Resumes   int64 `json:"resumes"`
	Condemned int64 `json:"condemned"`
	Yokes     int64 `json:"yokes"`
	Breaks    int64 `json:"breaks"`

	LiveThreads int64 `json:"live_threads"` // spawns - dones
	CommitWakes int64 `json:"commit_wakes"`
	Blocks      int64 `json:"blocks"`
	Pauses      int64 `json:"pauses"`

	Syncs     int64 `json:"syncs"`
	SyncFast  int64 `json:"sync_fast"`
	SyncMulti int64 `json:"sync_multi"`

	AlarmFires         int64 `json:"alarm_fires"`
	CustodianShutdowns int64 `json:"custodian_shutdowns"`
	CustodianSwept     int64 `json:"custodian_swept_threads"`
}
