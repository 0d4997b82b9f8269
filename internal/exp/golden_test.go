package exp

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the Fig. 3/Fig. 4 goldens in testdata/")

// checkGolden compares got with testdata/name byte for byte, rewriting
// the file instead under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to record it)", err)
	}
	if got != string(want) {
		t.Errorf("%s render diverged from the golden:\n--- golden\n%s--- got\n%s", name, want, got)
	}
}

// TestFigureGoldens pins the seed-1 Fig. 3 and Fig. 4 renders byte for
// byte: every DSE trajectory, stop cause, prune counter, and speedup
// they print.
func TestFigureGoldens(t *testing.T) {
	s := sharedSuite(t)
	f3, err := Fig3(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig3_seed1.golden", f3.Render())
	f4, err := Fig4(s)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig4_seed1.golden", f4.Render())
}

// TestWarmDeterministic checks that computing the apps concurrently
// (Fig3 on a fresh suite goes through Warm) renders byte-identical to
// a suite whose apps were filled one by one, in order, before Fig3.
func TestWarmDeterministic(t *testing.T) {
	names := AppNames()
	if testing.Short() {
		names = []string{"KMeans", "S-W", "AES"}
	}
	inOrder := NewSuite(1)
	for _, name := range names {
		if _, err := inOrder.Result(name, Modes{Vanilla: true}); err != nil {
			t.Fatal(err)
		}
	}
	want, err := Fig3(inOrder, names)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Fig3(NewSuite(1), names)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := got.Render(), want.Render(); g != w {
		t.Errorf("Fig. 3 through Warm diverged from the in-order suite:\n--- in order\n%s--- warm\n%s", w, g)
	}
}
