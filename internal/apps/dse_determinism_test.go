package apps

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"s2fa/internal/cir"
	"s2fa/internal/dse"
	"s2fa/internal/fpga"
	"s2fa/internal/hls"
	"s2fa/internal/space"
)

var update = flag.Bool("update", false, "rewrite the DSE fingerprint golden in testdata/")

const fingerprintGolden = "testdata/dse_fingerprints.golden"

// outcomeFingerprint serializes every Outcome field of the determinism
// contract into one string, so "byte-identical" is checked literally:
// two runs agree iff their fingerprints are equal byte for byte.
func outcomeFingerprint(o *dse.Outcome) string {
	s := fmt.Sprintf("kernel=%s evals=%d stop=%s total=%b first=%x@%x best=%s/%b prune=%d/%d collapse=%d/%d parts=%d\n",
		o.KernelName, o.Evaluations, o.StopReason,
		math.Float64bits(o.TotalMinutes),
		math.Float64bits(o.FirstFeasible), math.Float64bits(o.FirstFeasibleMinutes),
		o.Best.Point.Key(), math.Float64bits(o.Best.Objective),
		o.StaticallyPruned, o.PrunedDomainValues,
		o.RangeCollapsed, o.RangeRestrictedValues,
		len(o.Partitions))
	for _, p := range o.Trajectory {
		s += fmt.Sprintf("  %b %b\n", math.Float64bits(p.Minutes), math.Float64bits(p.Objective))
	}
	return s
}

// s2faFingerprint runs the S2FA DSE of one app at one seed on a fresh
// space and memoizing evaluator and fingerprints the outcome.
func s2faFingerprint(a *App, k *cir.Kernel, dev *fpga.Device, seed int64) string {
	sp := space.Identify(k)
	cfg := dse.S2FAConfig(seed)
	cfg.Device = dev
	return outcomeFingerprint(dse.Run(k, sp, dse.NewEvaluator(k, sp, dev, int64(a.Tasks), hls.Options{}), cfg))
}

// goldenKey names one app/seed entry of the fingerprint golden.
func goldenKey(app string, seed int64) string { return fmt.Sprintf("%s seed=%d", app, seed) }

// readFingerprintGolden parses the golden file: each entry is a
// "== <app> seed=<n>" header line followed by the fingerprint lines.
func readFingerprintGolden(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(fingerprintGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to record it)", err)
	}
	out := map[string]string{}
	var key string
	for _, line := range strings.SplitAfter(string(data), "\n") {
		if h, ok := strings.CutPrefix(line, "== "); ok {
			key = strings.TrimSuffix(h, "\n")
			continue
		}
		out[key] += line
	}
	return out
}

// TestDSECrossEngineDeterminism pins the DSE bit for bit over the full
// workload suite: for every app and seed, the S2FA outcome must match
// the recorded fingerprint golden both when the DSE runs alone and when
// all apps run at once on real goroutines — the way exp.Suite.Warm
// computes Fig. 3 — at every GOMAXPROCS setting (the parN subtests).
// The trajectory, incumbent sequence, entropy stops, and all counters
// may not move by one bit whatever the hardware parallelism; the
// concurrent runs also prove the DSE shares no mutable state across
// apps. Refresh the golden with -update only for a deliberate change
// of search behavior.
func TestDSECrossEngineDeterminism(t *testing.T) {
	dev := fpga.VU9P()
	appNames := Names()
	seeds := []int64{1, 7, 42}
	procs := []int{1, 4, 16}
	if testing.Short() {
		appNames = []string{"S-W", "KMeans"}
		seeds = []int64{1}
		procs = []int{4}
	}
	if *update && testing.Short() {
		t.Fatal("-update records every app and seed; run it without -short")
	}
	kernels := make([]*cir.Kernel, len(appNames))
	for i, name := range appNames {
		k, err := Get(name).Kernel()
		if err != nil {
			t.Fatal(err)
		}
		kernels[i] = k
	}

	var rec strings.Builder
	ref := map[string]string{}
	for _, seed := range seeds {
		for i, name := range appNames {
			fp := s2faFingerprint(Get(name), kernels[i], dev, seed)
			ref[goldenKey(name, seed)] = fp
			fmt.Fprintf(&rec, "== %s\n%s", goldenKey(name, seed), fp)
		}
	}
	if *update {
		if err := os.MkdirAll(filepath.Dir(fingerprintGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fingerprintGolden, []byte(rec.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden := readFingerprintGolden(t)
	for _, seed := range seeds {
		for _, name := range appNames {
			key := goldenKey(name, seed)
			if want, ok := golden[key]; !ok {
				t.Errorf("%s: missing from %s", key, fingerprintGolden)
			} else if ref[key] != want {
				t.Errorf("%s: outcome diverged from the golden:\n--- golden\n%s--- got\n%s", key, want, ref[key])
			}
		}
	}

	prevProcs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prevProcs)
	for _, seed := range seeds {
		for _, p := range procs {
			runtime.GOMAXPROCS(p)
			got := make([]string, len(appNames))
			var wg sync.WaitGroup
			for i, name := range appNames {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got[i] = s2faFingerprint(Get(name), kernels[i], dev, seed)
				}()
			}
			wg.Wait()
			for i, name := range appNames {
				t.Run(fmt.Sprintf("%s/seed%d/par%d", name, seed, p), func(t *testing.T) {
					if want := golden[goldenKey(name, seed)]; got[i] != want {
						t.Errorf("concurrent outcome diverged from the golden:\n--- golden\n%s--- concurrent\n%s", want, got[i])
					}
				})
			}
		}
	}
}
