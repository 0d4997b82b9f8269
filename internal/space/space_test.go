package space

import (
	"math/rand"
	"testing"
	"testing/quick"

	"s2fa/internal/apps"
	"s2fa/internal/cir"
	"s2fa/internal/fpga"
)

// get reads the named parameter of pt (0 when absent).
func get(pt Point, name string) int {
	v, _ := pt.Get(name)
	return v
}

// set assigns the named parameter of pt, a point of s.
func set(s *Space, pt Point, name string, v int) {
	pt.Set(s.Index(name), v)
}

func swSpace(t *testing.T) *Space {
	t.Helper()
	k, err := apps.Get("S-W").Kernel()
	if err != nil {
		t.Fatal(err)
	}
	return Identify(k)
}

// TestSWCardinality asserts the paper's Table 1 observation: the
// Smith-Waterman design space exceeds a thousand trillion points.
func TestSWCardinality(t *testing.T) {
	s := swSpace(t)
	if c := s.Cardinality(); c < 1e15 {
		t.Errorf("S-W cardinality = %.3g, paper says > 1e15", c)
	}
}

func TestIdentifyFactors(t *testing.T) {
	s := swSpace(t)
	kinds := map[FactorKind]int{}
	for i := range s.Params {
		kinds[s.Params[i].Kind]++
	}
	// S-W: 4 buffers (in_1, in_2, out_1, out_2), 3 counted loops.
	if kinds[FactorBitWidth] != 4 {
		t.Errorf("bitwidth factors = %d, want 4", kinds[FactorBitWidth])
	}
	if kinds[FactorTile] != 3 || kinds[FactorParallel] != 3 || kinds[FactorPipeline] != 3 {
		t.Errorf("loop factors = %v", kinds)
	}
	// Table 1 domains.
	bw := s.Param("in_1.bitwidth")
	if bw == nil || bw.Size() != 6 || bw.Enum[0] != 16 || bw.Enum[5] != 512 {
		t.Errorf("bitwidth domain = %+v", bw)
	}
	par := s.Param("L1.parallel")
	if par == nil || par.Min != 1 || par.Max != 127 {
		t.Errorf("L1.parallel domain = %+v", par)
	}
	task := s.Param("L0.parallel")
	if task == nil || task.Max != MaxTaskParallel {
		t.Errorf("task parallel domain = %+v", task)
	}
}

func TestOrdinalRoundTrip(t *testing.T) {
	s := swSpace(t)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for i := range s.Params {
			p := &s.Params[i]
			v := p.Random(rng)
			if p.ValueAt(p.Ordinal(v)) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestRandomPointValidates(t *testing.T) {
	s := swSpace(t)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 100; i++ {
		pt := s.RandomPoint(rng)
		if err := s.Validate(pt); err != nil {
			t.Fatalf("random point invalid: %v", err)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	s := swSpace(t)
	rng := rand.New(rand.NewSource(9))
	pt := s.RandomPoint(rng)
	set(s, pt, "L1.parallel", 100000)
	if err := s.Validate(pt); err == nil {
		t.Error("out-of-domain value accepted")
	}
	// A point of a space without L1.parallel.
	var fewer []Param
	for _, p := range s.Params {
		if p.Name != "L1.parallel" {
			fewer = append(fewer, p)
		}
	}
	if err := s.Validate(New(s.Kernel, fewer).AreaSeed()); err == nil {
		t.Error("missing parameter accepted")
	}
}

func TestSeeds(t *testing.T) {
	s := swSpace(t)
	perf := s.PerformanceSeed()
	if err := s.Validate(perf); err != nil {
		t.Fatalf("performance seed invalid: %v", err)
	}
	// Paper §4.3.2: pipeline all loops, parallel 32, bit-width 512.
	if get(perf, "L1.parallel") != 32 || get(perf, "in_1.bitwidth") != 512 || get(perf, "L1.pipeline") != PipeOnVal {
		t.Errorf("performance seed = %v", perf)
	}
	area := s.AreaSeed()
	if err := s.Validate(area); err != nil {
		t.Fatalf("area seed invalid: %v", err)
	}
	if get(area, "L1.parallel") != 1 || get(area, "in_1.bitwidth") != 16 || get(area, "L1.pipeline") != PipeOffVal {
		t.Errorf("area seed = %v", area)
	}
}

func TestDirectivesMapping(t *testing.T) {
	s := swSpace(t)
	pt := s.AreaSeed()
	set(s, pt, "L1.parallel", 8)
	set(s, pt, "L1.tile", 4)
	set(s, pt, "L1.pipeline", PipeFlattenVal)
	set(s, pt, "in_1.bitwidth", 256)
	d := s.Directives(pt)
	opt := d.Loops["L1"]
	if opt.Parallel != 8 || opt.Tile != 4 || opt.Pipeline != cir.PipeFlatten {
		t.Errorf("L1 directives = %+v", opt)
	}
	if d.BitWidths["in_1"] != 256 {
		t.Errorf("bitwidths = %v", d.BitWidths)
	}
}

func TestRestrict(t *testing.T) {
	s := swSpace(t)
	sub, err := Restrict(s, []Constraint{
		{Param: "L1.parallel", LoOrd: 0, HiOrd: 7},   // values 1..8
		{Param: "L0.pipeline", LoOrd: 1, HiOrd: 2},   // {on, flatten}
		{Param: "in_1.bitwidth", LoOrd: 3, HiOrd: 5}, // {128,256,512}
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := sub.Param("L1.parallel"); p.Min != 1 || p.Max != 8 {
		t.Errorf("restricted range = [%d,%d]", p.Min, p.Max)
	}
	if p := sub.Param("L0.pipeline"); p.Size() != 2 || p.Enum[0] != PipeOnVal {
		t.Errorf("restricted enum = %v", p.Enum)
	}
	if p := sub.Param("in_1.bitwidth"); p.Size() != 3 || p.Enum[0] != 128 {
		t.Errorf("restricted bitwidths = %v", p.Enum)
	}
	// Untouched params keep their domains.
	if p := sub.Param("L2.parallel"); p.Size() != s.Param("L2.parallel").Size() {
		t.Error("unconstrained parameter narrowed")
	}
	// Seeds clamp into the sub-box.
	area := sub.AreaSeed()
	if get(area, "L0.pipeline") != PipeOnVal {
		t.Errorf("area seed pipeline = %d, want clamped to on", get(area, "L0.pipeline"))
	}
	if err := sub.Validate(area); err != nil {
		t.Errorf("area seed invalid in subspace: %v", err)
	}
	// Cardinality shrinks.
	if sub.Cardinality() >= s.Cardinality() {
		t.Error("restriction did not shrink the space")
	}
}

func TestRestrictEmptyDomain(t *testing.T) {
	s := swSpace(t)
	if _, err := Restrict(s, []Constraint{{Param: "L0.pipeline", LoOrd: 2, HiOrd: 1}}); err == nil {
		t.Error("empty restriction accepted")
	}
	// Intersection of two constraints on the same param.
	sub, err := Restrict(s, []Constraint{
		{Param: "L1.parallel", LoOrd: 0, HiOrd: 63},
		{Param: "L1.parallel", LoOrd: 16, HiOrd: 126},
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := sub.Param("L1.parallel"); p.Min != 17 || p.Max != 64 {
		t.Errorf("intersected range = [%d,%d]", p.Min, p.Max)
	}
}

func TestClamp(t *testing.T) {
	s := swSpace(t)
	bw := s.Param("in_1.bitwidth")
	if bw.Clamp(100) != 128 {
		t.Errorf("Clamp(100) = %d", bw.Clamp(100))
	}
	par := s.Param("L1.parallel")
	if par.Clamp(0) != 1 || par.Clamp(9999) != 127 || par.Clamp(50) != 50 {
		t.Error("range clamp broken")
	}
}

// TestDerivedSpacesShareLayout checks that every space derived from an
// identified one shares its layout, so points move between the root
// space and its partitions without translation.
func TestDerivedSpacesShareLayout(t *testing.T) {
	s := swSpace(t)
	sub, err := Restrict(s, []Constraint{{Param: "L1.parallel", LoOrd: 0, HiOrd: 7}})
	if err != nil {
		t.Fatal(err)
	}
	pruned, removed := PruneStatic(s, s.Kernel)
	if removed == 0 {
		t.Fatal("fixture: PruneStatic removed nothing on S-W")
	}
	derived := map[string]*Space{"Restrict": sub, "PruneStatic": pruned}
	fired := false
	for _, name := range apps.Names() {
		k, err := apps.Get(name).Kernel()
		if err != nil {
			t.Fatal(err)
		}
		root := Identify(k)
		if r, n := RestrictFromRanges(root, fpga.VU9P()); n > 0 {
			fired = true
			if r.l != root.l {
				t.Errorf("%s: RestrictFromRanges built a new layout", name)
			}
		}
	}
	if !fired {
		t.Error("fixture: RestrictFromRanges removed nothing on any app")
	}
	for how, d := range derived {
		if d.l != s.l {
			t.Errorf("%s built a new layout", how)
		}
		if d.AreaSeed().l != s.l {
			t.Errorf("%s: points do not share the root layout", how)
		}
	}
}
