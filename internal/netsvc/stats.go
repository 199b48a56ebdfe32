package netsvc

import "sync/atomic"

// Stats is the serving layer's live counter block. All fields are
// written with atomics so the snapshot is safe from any goroutine (the
// /debug/stats route, tests, plain monitoring goroutines); obs.Load
// copies each into the same-named StatsSnapshot field.
type Stats struct {
	Accepted    atomic.Int64 // conns accepted by the OS listener
	Active      atomic.Int64 // conns currently being served
	Drained     atomic.Int64 // sessions that ended cleanly (EOF, close, timeout response sent)
	Killed      atomic.Int64 // sessions terminated by custodian shutdown mid-service
	TimedOut    atomic.Int64 // conns closed by the idle deadline
	Rejected    atomic.Int64 // conns closed unserved (shutdown races, dead custodians)
	Shed        atomic.Int64 // conns answered 503 by the pump: pending queue over MaxPending
	AdmShed     atomic.Int64 // requests refused by adaptive admission (all classes)
	AdmShedBulk atomic.Int64 // bulk-class requests among AdmShed
	Migrated    atomic.Int64 // queued conns rehomed to a sibling shard by a drain
	ReqAdmin    atomic.Int64 // dispatched requests classified admin
	ReqNormal   atomic.Int64 // dispatched requests classified normal
	ReqBulk     atomic.Int64 // dispatched requests classified bulk
	Deadlined   atomic.Int64 // requests cut off by the per-request deadline
	Restarts    atomic.Int64 // accept-loop restarts performed by the supervisor
	Requests    atomic.Int64 // protocol frames parsed off the wire
	Responses   atomic.Int64 // responses serialized (faults excluded)
	PipelineHWM atomic.Int64 // most responses ever coalesced into one write batch
}

// noteClass counts one classified request dispatch.
func (s *Stats) noteClass(p Priority) {
	switch p {
	case ClassAdmin:
		s.ReqAdmin.Add(1)
	case ClassBulk:
		s.ReqBulk.Add(1)
	default:
		s.ReqNormal.Add(1)
	}
}

// notePipelineDepth raises the pipelined-depth high-water mark to n.
func (s *Stats) notePipelineDepth(n int64) {
	for {
		cur := s.PipelineHWM.Load()
		if n <= cur || s.PipelineHWM.CompareAndSwap(cur, n) {
			return
		}
	}
}

// StatsSnapshot is a point-in-time copy of the counters. Protocol names
// the listener's wire codec. Fleet totals combine shards with obs.Fold,
// under the rule each field declares.
type StatsSnapshot struct {
	Protocol      string `json:"protocol"`
	Accepted      int64  `json:"accepted"`
	Active        int64  `json:"active"`
	Drained       int64  `json:"drained"`
	Killed        int64  `json:"killed"`
	TimedOut      int64  `json:"timed_out"`
	Rejected      int64  `json:"rejected"`
	Shed          int64  `json:"shed"`
	AdmShed       int64  `json:"adm_shed"`
	AdmShedBulk   int64  `json:"adm_shed_bulk"`
	Migrated      int64  `json:"migrated"`
	ReqAdmin      int64  `json:"req_admin"`
	ReqNormal     int64  `json:"req_normal"`
	ReqBulk       int64  `json:"req_bulk"`
	Deadlined     int64  `json:"deadlined"`
	Restarts      int64  `json:"restarts"`
	Requests      int64  `json:"requests"`
	Responses     int64  `json:"responses"`
	PipelineHWM   int64  `json:"pipeline_hwm" agg:"max"`
	SojournEWMAus int64  `json:"sojourn_ewma_us" agg:"max"` // smoothed queue delay, µs
	Overloaded    bool   `json:"overloaded"`                // admission controller currently shedding
	// ShardsDrained counts completed live drain/handoff cycles; only the
	// fleet-level (ShardedServer) snapshot sets it.
	ShardsDrained int64 `json:"shards_drained"`
}
