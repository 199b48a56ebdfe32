package obs_test

import (
	"strings"
	"testing"

	"repro/internal/explore"
	"repro/internal/explore/scenarios"
	"repro/internal/obs"
)

// An external test package: the scenarios import kvtxn, which imports
// obs for its counter snapshots.

// TestExploreTeeRoundTrip runs a deterministic exploration with an Obs
// (recorder on) teed alongside the controller, dumps the flight in trace
// format, and feeds it back through the lenient replayer: the decoder
// must accept the dump and the replay must complete without a harness
// error. This is the live-server-to-systematic-replay bridge.
func TestExploreTeeRoundTrip(t *testing.T) {
	sc := scenarios.QueueKillSafe()
	o := obs.New()
	o.EnableRecorder(4096)
	out := explore.RunOnce(sc, explore.NewRandomPicker(11, 0.25), 11,
		explore.Options{Instrument: o})
	if out.Status == explore.StatusError {
		t.Fatalf("instrumented run: harness error: %v", out.Err)
	}
	s := o.Snapshot()
	if s.Spawns == 0 || s.Syncs == 0 {
		t.Fatalf("tee did not reach the obs taps: %+v", s)
	}
	if o.Recorder().Recorded() == 0 {
		t.Fatal("flight recorder stayed empty during the run")
	}

	text := o.Recorder().TraceText(sc.Name, 11)
	tr, err := explore.DecodeTrace(strings.NewReader(text))
	if err != nil {
		t.Fatalf("DecodeTrace(recorded flight): %v\n%s", err, text)
	}
	if tr.Scenario != sc.Name {
		t.Fatalf("scenario header %q, want %q", tr.Scenario, sc.Name)
	}

	rep := explore.Replay(sc, tr, explore.Options{Lenient: true})
	if rep.Status == explore.StatusError {
		t.Fatalf("lenient replay of recorded flight: %v\ntrace:\n%s", rep.Err, text)
	}
}
