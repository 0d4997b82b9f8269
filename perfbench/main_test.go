package main

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"
)

// requestList renders the first rounds of a workload's request list:
// everything the system receives, in order.
func requestList(t *testing.T, name string, seed int64) []byte {
	t.Helper()
	w, err := newWorkload(options{workload: name, seed: seed}, newTraceStats())
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	for r := 0; r < 2; r++ {
		rd, err := w.newRound(r, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		switch rd := rd.(type) {
		case *paperRound:
			fmt.Fprintln(&b, rd.order)
		case *deployRound:
			for _, q := range rd.reqs {
				fmt.Fprintln(&b, q.negative, q.k.Source)
				for _, v := range q.tasks {
					fmt.Fprintln(&b, v)
				}
			}
		case *churnRound:
			for _, q := range rd.w.list {
				fmt.Fprintln(&b, q.first, rd.w.refs[q.ref].src)
			}
		}
	}
	return b.Bytes()
}

func TestRequestListDeterministic(t *testing.T) {
	for _, name := range workloadNames {
		a, b := requestList(t, name, 5), requestList(t, name, 5)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed gave different request lists", name)
		}
		if bytes.Equal(a, requestList(t, name, 6)) {
			t.Errorf("%s: seeds 5 and 6 gave the same request list", name)
		}
	}
}

// oneRound runs the smallest run of a workload: a single round (two with
// tracing, the second one traced).
func oneRound(t *testing.T, name string, seed int64, trace bool) *report {
	t.Helper()
	rep, err := execute(options{workload: name, seed: seed, seconds: 1e-3, trace: trace}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.correct || rep.failed != 0 {
		t.Fatalf("%s seed %d: %d of %d requests failed", name, seed, rep.failed, rep.attempted)
	}
	return rep
}

func TestSameSeedSameSimulatedMetrics(t *testing.T) {
	for _, name := range []string{"paper-eval", "kernel-deploy"} {
		a := qualityOf(t, name)
		b := qualityOf(t, name)
		if a != b {
			t.Errorf("%s: simulated metrics differ between same-seed runs:\n%s\n%s", name, a, b)
		}
		if !strings.Contains(a, "quality.dse_sim_min") || strings.Contains(a, "quality.dse_sim_min=0 ") {
			t.Errorf("%s: no DSE minutes reported: %s", name, a)
		}
	}
}

// qualityOf runs one round and renders its simulated metrics exactly.
func qualityOf(t *testing.T, name string) string {
	w, err := newWorkload(options{workload: name, seed: 3}, newTraceStats())
	if err != nil {
		t.Fatal(err)
	}
	p, err := runPhase(w, 0, 1, nil, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.failed != 0 {
		t.Fatalf("%s: %d requests failed: %v", name, p.failed, p.failures)
	}
	var b strings.Builder
	for _, m := range qualityMetrics(w) {
		fmt.Fprintf(&b, "%s=%v ", m.name, m.value)
	}
	return b.String()
}

func sp(name string, start, end, parent int) span {
	return span{name: name, start: time.Duration(start), end: time.Duration(end), parent: parent}
}

func TestSelfTimesNestedAndOverlapping(t *testing.T) {
	spans := []span{
		sp("request", 0, 100, -1),
		sp("a", 10, 40, 0),  // overlaps b
		sp("b", 30, 60, 0),  // overlaps a
		sp("c", 90, 120, 0), // spills past its parent's end
		sp("a.x", 15, 20, 1),
		sp("a.y", 18, 25, 1), // overlaps a.x
	}
	want := []time.Duration{100 - 50 - 10, 30 - 10, 30, 30, 5, 7}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].name, got[i], want[i])
		}
	}
}

func TestLayerSharesAccountForRequestTime(t *testing.T) {
	spans := []span{
		sp("request", 0, 100, -1),
		sp("kdsl", 0, 20, 0),
		sp("dse", 20, 90, 0),
		sp("eval", 30, 40, 2),
		sp("eval", 50, 75, 2),
		sp("request", 200, 230, -1),
		sp("kdsl", 205, 215, 5),
	}
	rows, total := layerTable(spans)
	if total != 130 {
		t.Fatalf("request total = %d, want 130", total)
	}
	var sum time.Duration
	self := map[string]time.Duration{}
	for _, r := range rows {
		sum += r.self
		self[r.name] = r.self
	}
	if sum != total {
		t.Errorf("self times sum to %d, want the request total %d", sum, total)
	}
	if self["dse"] != 35 || self["eval"] != 35 || self["kdsl"] != 30 || self["request"] != 30 {
		t.Errorf("self times = %v", self)
	}
}

func TestTracedOutputsEqualUntraced(t *testing.T) {
	for _, name := range workloadNames {
		rep := oneRound(t, name, 4, true)
		m := map[string]float64{}
		for _, x := range rep.metrics {
			m[x.name] = x.value
		}
		if _, ok := m["trace.overhead_frac"]; !ok {
			t.Errorf("%s: traced run reports no tracing overhead", name)
		}
		switch name {
		case "compile-churn":
			if m["ccache.miss_us"] <= 0 || m["kdsl.compile_us"] <= 0 || m["ccache.poisoned"] != 0 {
				t.Errorf("%s: compile layers not measured: %v", name, m)
			}
		default:
			if m["dse.run_ms"] <= 0 || m["hls.estimate_us"] <= 0 || m["dse.fresh"] <= 0 {
				t.Errorf("%s: DSE layers not measured: %v", name, m)
			}
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if v, n := quantile(xs, 0.5); v != 3 || n != 2 {
		t.Errorf("median = %v (%d beyond), want 3 (2 beyond)", v, n)
	}
	if v, _ := quantile(xs, 0.9); v != 4.6 {
		t.Errorf("p90 = %v, want 4.6", v)
	}
	if xs[0] != 5 {
		t.Error("quantile reordered its input")
	}
	// 40 samples, 0..39, in four rounds of 10: p50 leaves 20 beyond, so
	// two segments of two rounds, whose medians are 9.5 and 29.5; the
	// faster (lower) quartile of the two is 14.5.
	var seq []float64
	for i := 0; i < 40; i++ {
		seq = append(seq, float64(i))
	}
	rounds := []int{10, 10, 10, 10}
	if v, segs, beyond := segmentedQuantile(seq, rounds, 0.5); v != 14.5 || segs != 2 || beyond != 10 {
		t.Errorf("segmented median = %v over %d segments, %d beyond; want 14.5, 2, 10", v, segs, beyond)
	}
	if _, segs, _ := segmentedQuantile(seq, rounds, 0.9); segs != 1 {
		t.Errorf("p90 of 40 samples used %d segments, want 1", segs)
	}
	// Segments never split a round: p10 of 40 samples leaves room for
	// three segments, but two rounds make at most two.
	if _, segs, _ := segmentedQuantile(seq, []int{20, 20}, 0.1); segs != 2 {
		t.Errorf("p10 over two rounds used %d segments, want 2", segs)
	}
}
