package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"s2fa/internal/apps"
	"s2fa/internal/blaze"
	"s2fa/internal/fpga"
	"s2fa/internal/jvmsim"
	"s2fa/internal/obs"
	"s2fa/internal/spark"
)

// buildSW runs the full S-W pipeline at seed 42, optionally traced,
// then deploys the accelerator and executes a small MapAcc batch so the
// blaze runtime stage appears in the trace too.
func buildSW(t *testing.T, tr *obs.Trace) *Build {
	t.Helper()
	a := apps.Get("S-W")
	fw := New()
	fw.Seed = 42
	fw.Tasks = a.Tasks
	fw.Trace = tr

	b, err := fw.BuildFromSource(a.Source)
	if err != nil {
		t.Fatal(err)
	}

	mgr := blaze.NewManager(fpga.VU9P())
	mgr.Trace = tr
	if err := fw.Deploy(b, mgr); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	rdd := spark.Parallelize(spark.NewContext(), a.Gen(rng, 4), 1)
	_, stats, err := blaze.Wrap(rdd, mgr).MapAcc(jvmsim.New(b.Class))
	if err != nil {
		t.Fatal(err)
	}
	if !stats.UsedFPGA {
		t.Fatalf("offload fell back: %s", stats.Fallback)
	}
	return b
}

// TestTracingDeterminism is the observability layer's non-negotiable
// invariant: a traced S-W run at seed 42 must follow a byte-identical
// search trajectory and land on the same best design as an untraced one.
// The emitted JSONL must cover every pipeline stage and round-trip
// through the Chrome trace_event exporter.
func TestTracingDeterminism(t *testing.T) {
	var jsonl bytes.Buffer
	tr := obs.New(obs.NewJSONL(&jsonl))
	traced := buildSW(t, tr)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	plain := buildSW(t, nil)

	// Byte-identical trajectories: same (virtual minute, objective) pairs
	// in the same order.
	tj := fmt.Sprintf("%v", traced.Outcome.Trajectory)
	pj := fmt.Sprintf("%v", plain.Outcome.Trajectory)
	if tj != pj {
		t.Errorf("tracing perturbed the trajectory:\ntraced  %s\nuntraced %s", tj, pj)
	}
	if got, want := traced.Outcome.Best.Point.Key(), plain.Outcome.Best.Point.Key(); got != want {
		t.Errorf("best design differs: traced %s, untraced %s", got, want)
	}
	tb := math.Float64bits(traced.Outcome.Best.Objective)
	pb := math.Float64bits(plain.Outcome.Best.Objective)
	if tb != pb {
		t.Errorf("best objective differs: traced %x, untraced %x", tb, pb)
	}
	if traced.Outcome.Evaluations != plain.Outcome.Evaluations {
		t.Errorf("evaluation count differs: traced %d, untraced %d",
			traced.Outcome.Evaluations, plain.Outcome.Evaluations)
	}
	if traced.Outcome.StopReason != plain.Outcome.StopReason {
		t.Errorf("stop reason differs: traced %s, untraced %s",
			traced.Outcome.StopReason, plain.Outcome.StopReason)
	}

	// Every pipeline stage must have opened at least one span.
	events, err := obs.ReadJSONL(bytes.NewReader(jsonl.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	begun := map[string]bool{}
	for _, e := range events {
		if e.Ph == obs.PhaseBegin {
			begun[e.Cat] = true
		}
	}
	for _, stage := range []string{"kdsl", "bytecode", "absint", "b2c", "lint", "space", "hls", "dse", "blaze"} {
		if !begun[stage] {
			t.Errorf("no span for pipeline stage %q (got %v)", stage, begun)
		}
	}

	// The JSONL must round-trip through the Chrome exporter into a valid
	// trace_event document Perfetto can load.
	var chrome bytes.Buffer
	if err := obs.WriteChrome(events, &chrome); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) < len(events) {
		t.Errorf("chrome export dropped events: %d < %d", len(doc.TraceEvents), len(events))
	}

	// Maximum observability must still be free: metrics registry and
	// flight recorder attached at once, yet the seed-42 trajectory stays
	// byte-identical to the bare run.
	reg := obs.NewRegistry()
	rec := obs.NewRecorder(obs.RecorderConfig{})
	var heavy bytes.Buffer
	tr2 := obs.New(obs.Multi(obs.NewJSONL(&heavy), rec), obs.WithRegistry(reg))
	full := buildSW(t, tr2)
	if err := tr2.Close(); err != nil {
		t.Fatal(err)
	}
	if fj := fmt.Sprintf("%v", full.Outcome.Trajectory); fj != pj {
		t.Errorf("registry+recorder run perturbed the trajectory:\nfull     %s\nuntraced %s", fj, pj)
	}
	if got, want := full.Outcome.Best.Point.Key(), plain.Outcome.Best.Point.Key(); got != want {
		t.Errorf("full-observability best design differs: %s vs %s", got, want)
	}
	fb := math.Float64bits(full.Outcome.Best.Objective)
	if fb != pb {
		t.Errorf("full-observability best objective differs: %x vs %x", fb, pb)
	}
	if full.Outcome.Evaluations != plain.Outcome.Evaluations {
		t.Errorf("full-observability evaluation count differs: %d vs %d",
			full.Outcome.Evaluations, plain.Outcome.Evaluations)
	}

	// And the observers must actually have observed: the registry's eval
	// counter matches the outcome, and the auto-wired span histograms
	// carry at least the DSE stage.
	snap := reg.Snapshot()
	if got := snap.Counters["dse.evals"]; got != int64(full.Outcome.Evaluations) {
		t.Errorf("registry dse.evals = %d, want %d", got, full.Outcome.Evaluations)
	}
	var sawDSEStage bool
	for name := range snap.Histograms {
		if name == `stage_us{stage="dse/run"}` {
			sawDSEStage = true
		}
	}
	if !sawDSEStage {
		t.Errorf("registry missing auto-wired stage_us{stage=\"dse/run\"} histogram (have %d series)", len(snap.Histograms))
	}
}
