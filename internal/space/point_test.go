package space_test

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"s2fa/internal/apps"
	"s2fa/internal/dse"
	"s2fa/internal/fpga"
	"s2fa/internal/hls"
	"s2fa/internal/space"
)

// mapKey is the map-based Point.Key this package shipped before points
// became value vectors: sorted names, "%s=%d;" per parameter. Golden
// files, trace args and reports depend on Key's output, so the dense Key
// must reproduce it byte for byte.
func mapKey(m map[string]int) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%d;", k, m[k])
	}
	return b.String()
}

// asMap reads pt, a point of sp, into the map form mapKey takes.
func asMap(sp *space.Space, pt space.Point) map[string]int {
	m := make(map[string]int, len(sp.Params))
	for i := range sp.Params {
		m[sp.Params[i].Name] = pt.At(i)
	}
	return m
}

// appPoints returns, for every app, points of its space: random points,
// both seeds, points drawn from each DSE partition's sub-space, and
// out-of-domain variants.
func appPoints(t *testing.T) map[string][]space.Point {
	t.Helper()
	out := map[string][]space.Point{}
	for _, name := range apps.Names() {
		a := apps.Get(name)
		k, err := a.Kernel()
		if err != nil {
			t.Fatal(err)
		}
		sp := space.Identify(k)
		rng := rand.New(rand.NewSource(7))
		pts := []space.Point{sp.PerformanceSeed(), sp.AreaSeed()}
		for i := 0; i < 40; i++ {
			pts = append(pts, sp.RandomPoint(rng))
		}
		eval := dse.NewEvaluator(k, sp, fpga.VU9P(), int64(a.Tasks), hls.Options{})
		for _, p := range dse.BuildPartitions(sp, k, eval, dse.DefaultPartitionConfig(), 1) {
			pts = append(pts, p.Sub.PerformanceSeed(), p.Sub.AreaSeed(), p.Sub.RandomPoint(rng))
		}
		for i := range sp.Params {
			pt := sp.RandomPoint(rng)
			pt.Set(i, []int{-3, 0, 48, 1 << 40}[i%4])
			pts = append(pts, pt)
		}
		out[name] = pts
		if len(pts) == 0 || pts[0].Len() != len(sp.Params) {
			t.Fatalf("%s: no points of the space", name)
		}
	}
	return out
}

func TestKeyMatchesMapKey(t *testing.T) {
	for name, pts := range appPoints(t) {
		k, _ := apps.Get(name).Kernel()
		sp := space.Identify(k)
		for _, pt := range pts {
			if got, want := pt.Key(), mapKey(asMap(sp, pt)); got != want {
				t.Fatalf("%s: Key\n got %s\nwant %s", name, got, want)
			}
		}
	}
}

// TestPackedKeyIdentity checks that packed keys are equal exactly when
// Keys are, over every pair of each app's points plus single-parameter
// variants of them.
func TestPackedKeyIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for name, pts := range appPoints(t) {
		var all []space.Point
		for _, pt := range pts {
			v := pt.Clone()
			i := rng.Intn(v.Len())
			v.Set(i, v.At(i)+1)
			all = append(all, pt, pt.Clone(), v)
		}
		for i := range all {
			for j := i; j < len(all); j++ {
				keyEq := all[i].Key() == all[j].Key()
				if packedEq := all[i].Packed() == all[j].Packed(); packedEq != keyEq {
					t.Fatalf("%s: packed equal %v, Key equal %v:\n%s\n%s", name, packedEq, keyEq, all[i].Key(), all[j].Key())
				}
				if eq := all[i].Equal(all[j]); eq != keyEq {
					t.Fatalf("%s: Equal %v, Key equal %v:\n%s\n%s", name, eq, keyEq, all[i].Key(), all[j].Key())
				}
			}
		}
	}
}

func TestZeroPoint(t *testing.T) {
	var pt space.Point
	if !pt.IsZero() || pt.Len() != 0 || pt.Key() != "" || pt.Packed() != "" || !pt.Clone().IsZero() {
		t.Errorf("zero Point: IsZero=%v Len=%d Key=%q Packed=%q", pt.IsZero(), pt.Len(), pt.Key(), pt.Packed())
	}
	if _, ok := pt.Get("L0.parallel"); ok {
		t.Error("zero Point assigns a parameter")
	}
}

// TestOutOfDomainRoundTrip checks that values outside a parameter's
// domain (the lint crosscheck's oversized factors and odd widths) are
// stored, keyed and cloned as given.
func TestOutOfDomainRoundTrip(t *testing.T) {
	k, err := apps.Get("S-W").Kernel()
	if err != nil {
		t.Fatal(err)
	}
	sp := space.Identify(k)
	base := sp.AreaSeed()
	for i := range sp.Params {
		p := &sp.Params[i]
		for _, v := range []int{p.Max * 2, 48, -1, 0, 1 << 40, -(1 << 40)} {
			pt := base.Clone()
			pt.Set(i, v)
			if got, _ := pt.Get(p.Name); got != v || pt.At(i) != v || pt.Clone().At(i) != v {
				t.Fatalf("%s=%d read back as %d", p.Name, v, got)
			}
			if want := fmt.Sprintf("%s=%d;", p.Name, v); !strings.Contains(pt.Key(), want) {
				t.Fatalf("Key %s lacks %s", pt.Key(), want)
			}
			if v != base.At(i) && (pt.Packed() == base.Packed() || pt.Equal(base)) {
				t.Fatalf("%s=%d keys like the base point", p.Name, v)
			}
			if base.At(i) == pt.At(i) && !pt.Equal(base) {
				t.Fatalf("%s=%d differs from an equal base point", p.Name, v)
			}
		}
	}
}

// TestPointsAlias checks the reference semantics points keep from their
// map days: a copy shares values, a clone does not.
func TestPointsAlias(t *testing.T) {
	k, err := apps.Get("KMeans").Kernel()
	if err != nil {
		t.Fatal(err)
	}
	sp := space.Identify(k)
	pt := sp.AreaSeed()
	alias, clone := pt, pt.Clone()
	pt.Set(0, 512)
	if alias.At(0) != 512 {
		t.Error("copy of a point does not alias it")
	}
	if clone.At(0) == 512 {
		t.Error("clone of a point aliases it")
	}
}
