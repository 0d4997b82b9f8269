package hls_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"s2fa/internal/access"
	"s2fa/internal/apps"
	"s2fa/internal/b2c"
	"s2fa/internal/cir"
	"s2fa/internal/depend"
	"s2fa/internal/dse"
	"s2fa/internal/fpga"
	"s2fa/internal/hls"
	"s2fa/internal/kdsl"
	"s2fa/internal/kdslgen"
	"s2fa/internal/merlin"
	"s2fa/internal/space"
	"s2fa/internal/tuner"
)

// subject is one kernel under test with its design space and batch.
type subject struct {
	name string
	k    *cir.Kernel
	sp   *space.Space
	n    int64
}

// appSubjects returns the 12 paper workloads.
func appSubjects(t *testing.T) []subject {
	t.Helper()
	var out []subject
	for _, name := range apps.Names() {
		a := apps.Get(name)
		k, err := a.Kernel()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, subject{name, k, space.Identify(k), int64(a.Tasks)})
	}
	return out
}

// genSubjects returns one generated kernel per kdslgen family (families
// rotate round-robin over the population index).
func genSubjects(t *testing.T) []subject {
	t.Helper()
	var out []subject
	for _, g := range kdslgen.Generate(1, 8) {
		cls, err := kdsl.CompileSource(g.Source)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		k, err := b2c.Compile(cls)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		out = append(out, subject{fmt.Sprintf("%s/%s", g.Name, g.Tags[0]), k, space.Identify(k), 256})
	}
	return out
}

// visited returns the distinct points an S2FA DSE of s at seed hands to
// its evaluator, in first-visit order.
func visited(s subject, seed int64) []space.Point {
	inner := dse.NewEvaluator(s.k, s.sp, fpga.VU9P(), s.n, hls.Options{})
	seen := map[string]bool{}
	var pts []space.Point
	rec := func(pt space.Point) tuner.Result {
		if key := pt.Key(); !seen[key] {
			seen[key] = true
			pts = append(pts, pt.Clone())
		}
		return inner(pt)
	}
	dse.Run(s.k, s.sp, rec, dse.S2FAConfig(seed))
	return pts
}

// extremes returns directive sets the DSE guards never let through:
// pipeline flatten on every loop (flatten-structure when a sub-loop has
// no constant trip) and every loop at its maximum parallel factor
// (resource overflow or routing congestion).
func extremes(k *cir.Kernel) []merlin.Directives {
	var out []merlin.Directives
	all := merlin.Directives{Loops: map[string]cir.LoopOpt{}}
	for _, l := range k.Loops() {
		out = append(out, merlin.Directives{Loops: map[string]cir.LoopOpt{l.ID: {Pipeline: cir.PipeFlatten}}})
		if tc := l.TripCount(); tc > 1 {
			all.Loops[l.ID] = cir.LoopOpt{Parallel: int(tc), Pipeline: cir.PipeOn}
		}
	}
	return append(out, all)
}

// TestEstimateWithMatchesEstimate checks that pricing an annotation from
// the base kernel's facts reproduces a fresh estimate of the annotation,
// field for field, on every design point the S2FA DSE estimates (12 apps
// x seeds {1,7,42}, one generated kernel per family), on the
// performance and area seeds, on each app's manual design, and on
// flatten and maximal-parallel points the DSE guards filter out.
func TestEstimateWithMatchesEstimate(t *testing.T) {
	dev := fpga.VU9P()
	tags := map[string]int{}
	check := func(s subject, f *hls.Facts, d merlin.Directives, opt hls.Options) {
		t.Helper()
		ann, err := merlin.Annotate(s.k, d)
		if err != nil {
			return // rejected before estimation
		}
		got := hls.EstimateWith(f, ann, dev, s.n, opt)
		want := hls.Estimate(ann, dev, s.n, opt)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s %v:\n got %+v\nwant %+v", s.name, d, got, want)
		}
		tags[got.Bottleneck]++
	}
	subjects := append(appSubjects(t), genSubjects(t)...)
	for i, s := range subjects {
		f := hls.Analyze(s.k)
		seeds := []int64{1, 7, 42}
		if i >= len(apps.Names()) {
			seeds = seeds[:1]
		}
		seen := map[string]bool{}
		for _, seed := range seeds {
			for _, pt := range visited(s, seed) {
				if key := pt.Key(); !seen[key] {
					seen[key] = true
					check(s, f, s.sp.Directives(pt), hls.Options{})
				}
			}
		}
		check(s, f, s.sp.Directives(s.sp.PerformanceSeed()), hls.Options{})
		check(s, f, s.sp.Directives(s.sp.AreaSeed()), hls.Options{})
		for _, d := range extremes(s.k) {
			check(s, f, d, hls.Options{})
		}
		if a := apps.Get(s.name); a != nil {
			loops, bw := a.Manual.Directives(s.k)
			check(s, f, merlin.Directives{Loops: loops, BitWidths: bw}, hls.Options{StageSplit: a.Manual.StageSplit})
		}
	}
	for _, tag := range []string{"resource-overflow", "routing-congestion", "flatten-structure"} {
		if tags[tag] == 0 {
			t.Errorf("no %s point compared; verdicts seen: %v", tag, tags)
		}
	}
}

// TestEstimateWithRejectsForeignKernel checks that facts of one kernel
// cannot silently price another.
func TestEstimateWithRejectsForeignKernel(t *testing.T) {
	ks, err := apps.Get("KMeans").Kernel()
	if err != nil {
		t.Fatal(err)
	}
	other, err := apps.Get("AES").Kernel()
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("EstimateWith priced a kernel its facts do not describe")
		}
	}()
	hls.EstimateWith(hls.Analyze(ks), other, fpga.VU9P(), 64, hls.Options{})
}

// TestAnalysesIgnoreDirectives guards the invariant EstimateWith rests
// on: for random legal directives d, every analysis behind hls.Facts
// reaches the same conclusions on merlin.Annotate(k, d) as on k. If an
// analysis starts reading a directive, this fails instead of the
// estimator silently mispricing design points.
func TestAnalysesIgnoreDirectives(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, s := range append(appSubjects(t), genSubjects(t)...) {
		base := hls.Analyze(s.k)
		tried := 0
		for i := 0; i < 40 && tried < 8; i++ {
			d := s.sp.Directives(s.sp.RandomPoint(rng))
			ann, err := merlin.Annotate(s.k, d)
			if err != nil {
				continue
			}
			tried++
			got := hls.Analyze(ann)
			where := fmt.Sprintf("%s %v", s.name, d)
			compareInfo(t, where, base.Info, got.Info)
			compareDepend(t, where, base.Dep, got.Dep)
			compareAccess(t, where, base.Acc, got.Acc)
		}
		if tried == 0 {
			t.Errorf("%s: no legal random directives drawn", s.name)
		}
	}
}

// loopFacts is the directive-independent content of a cir.LoopInfo.
type loopFacts struct {
	Index, Depth                int
	Trip                        int64
	Parent                      string
	Children                    []string
	BodyOps, SubtreeOps, RecOps cir.OpCount
	Access                      map[string]cir.ArrayAccess
	ScalarRec, CarriedArrays    []string
	HasTranscendental, HasWhile bool
	ArrayCarried                bool
}

func loopFactsOf(li *cir.LoopInfo) loopFacts {
	f := loopFacts{
		Index: li.Index, Depth: li.Depth, Trip: li.Trip,
		BodyOps: li.BodyOps, SubtreeOps: li.SubtreeOps, RecOps: li.RecOps,
		Access:    map[string]cir.ArrayAccess{},
		ScalarRec: li.ScalarRec, CarriedArrays: li.CarriedArrays,
		HasTranscendental: li.HasTranscendental, HasWhile: li.HasWhile,
		ArrayCarried: li.ArrayCarried,
	}
	if li.Parent != nil {
		f.Parent = li.Parent.Loop.ID
	}
	for _, c := range li.Children {
		f.Children = append(f.Children, c.Loop.ID)
	}
	for name, a := range li.Access {
		f.Access[name] = *a
	}
	return f
}

func compareInfo(t *testing.T, where string, base, ann *cir.KernelInfo) {
	t.Helper()
	if len(base.All) != len(ann.All) {
		t.Fatalf("%s: %d loops, base %d", where, len(ann.All), len(base.All))
	}
	if base.TopOps != ann.TopOps || base.MaxDepth != ann.MaxDepth || !reflect.DeepEqual(base.LocalArrays, ann.LocalArrays) {
		t.Errorf("%s: kernel-level cir facts differ", where)
	}
	for i, li := range base.All {
		other := ann.ByID[li.Loop.ID]
		if other == nil || ann.All[i] != other {
			t.Errorf("%s: loop %s not at preorder index %d", where, li.Loop.ID, i)
			continue
		}
		if a, b := loopFactsOf(li), loopFactsOf(other); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: loop %s cir facts differ:\nbase %+v\nann  %+v", where, li.Loop.ID, a, b)
		}
	}
}

func compareDepend(t *testing.T, where string, base, ann *depend.Analysis) {
	t.Helper()
	if !reflect.DeepEqual(base.Order, ann.Order) {
		t.Errorf("%s: depend loop order %v, base %v", where, ann.Order, base.Order)
	}
	for _, id := range base.Order {
		if !reflect.DeepEqual(base.Verdict(id), ann.Verdict(id)) {
			t.Errorf("%s: loop %s verdict %q, base %q", where, id, ann.Verdict(id).Describe(), base.Verdict(id).Describe())
		}
		if !reflect.DeepEqual(base.EffectiveRace(id), ann.EffectiveRace(id)) {
			t.Errorf("%s: loop %s EffectiveRace %v, base %v", where, id, ann.EffectiveRace(id), base.EffectiveRace(id))
		}
	}
}

// siteFacts is the exported content of an access.Site.
type siteFacts struct {
	Array             string
	Kind              access.ArrayKind
	Write             bool
	Pos               cir.Pos
	Idx               string
	Chain             []string
	InnerLoop         string
	WhileDepth        int
	DataDep, AffineOK bool
	Claims            map[string]access.Claim
	Class             string
}

func siteFactsOf(s *access.Site) *siteFacts {
	if s == nil {
		return nil
	}
	return &siteFacts{s.Array, s.Kind, s.Write, s.Pos, cir.ExprString(s.Idx), s.Chain, s.InnerLoop,
		s.WhileDepth, s.DataDep, s.AffineOK, s.Claims, s.Class().String()}
}

func compareAccess(t *testing.T, where string, base, ann *access.Analysis) {
	t.Helper()
	if !reflect.DeepEqual(base.LoopOrder, ann.LoopOrder) {
		t.Errorf("%s: access loop order %v, base %v", where, ann.LoopOrder, base.LoopOrder)
	}
	for _, id := range base.LoopOrder {
		if base.PortCap(id) != ann.PortCap(id) {
			t.Errorf("%s: loop %s PortCap %d, base %d", where, id, ann.PortCap(id), base.PortCap(id))
		}
		bl, al := base.Loops[id], ann.Loops[id]
		if len(bl) != len(al) {
			t.Errorf("%s: loop %s summarizes %d arrays, base %d", where, id, len(al), len(bl))
			continue
		}
		for j := range bl {
			b, a := *bl[j], *al[j]
			bs, as := b.Sites, a.Sites
			b.Sites, a.Sites = nil, nil
			if !reflect.DeepEqual(b, a) || len(bs) != len(as) {
				t.Errorf("%s: loop %s array %s summary differs", where, id, b.Array)
				continue
			}
			for k := range bs {
				if !reflect.DeepEqual(siteFactsOf(bs[k]), siteFactsOf(as[k])) {
					t.Errorf("%s: loop %s site %d differs", where, id, k)
				}
			}
		}
	}
	if len(base.Params) != len(ann.Params) {
		t.Fatalf("%s: %d param profiles, base %d", where, len(ann.Params), len(base.Params))
	}
	for i := range base.Params {
		b, a := base.Params[i], ann.Params[i]
		bw, aw := siteFactsOf(b.WorstSite), siteFactsOf(a.WorstSite)
		b.WorstSite, a.WorstSite = nil, nil
		if !reflect.DeepEqual(b, a) || !reflect.DeepEqual(bw, aw) {
			t.Errorf("%s: param %s profile %+v, base %+v", where, b.Name, a, b)
		}
	}
}
