// Package depend implements exact loop-carried dependence and alias
// analysis over the HLS-C IR (internal/cir).
//
// Where cir's per-loop carried-array heuristic decomposes subscripts in a
// single induction variable and compares symbolic remainders textually,
// this package builds full multivariate affine forms over the enclosing
// loop nest, bounds the non-affine remainder with a scalar value-range
// analysis (constant initializers, monotone updates, and guard conjuncts
// from enclosing if/while conditions), and runs GCD/Banerjee-style
// interval tests per access pair. The result is a structured per-loop
// Verdict — DOALL, pipeline with a proven minimum dependence distance, or
// sequential with a witness — each carrying kdsl source positions so the
// toolchain can name the exact access pair that blocks a directive.
//
// The analysis is deliberately one-sided: it may conservatively report a
// dependence that does not exist, but it must never classify an observed
// loop-carried conflict as independent. That contract is enforced
// differentially by a jvmsim trace property test over all workloads
// (internal/apps).
package depend

import (
	"fmt"
	"sort"
	"strings"

	"s2fa/internal/cir"
)

// Kind classifies a loop's cross-iteration behavior.
type Kind uint8

// Loop dependence verdict kinds.
const (
	// DOALL: no loop-carried dependence; iterations are independent.
	DOALL Kind = iota
	// Pipeline: iterations overlap subject to a proven minimum
	// dependence distance (Verdict.MinDist).
	Pipeline
	// Sequential: the analysis could not bound the dependence structure
	// (non-affine subscript, unbounded scalar, may-aliased buffers);
	// iterations must be assumed fully serial.
	Sequential
)

func (k Kind) String() string {
	switch k {
	case DOALL:
		return "DOALL"
	case Pipeline:
		return "pipeline"
	case Sequential:
		return "sequential"
	}
	return "?"
}

// Config tunes the analysis. The zero value assumes distinctly named
// buffers never alias, which holds for kernels produced by the
// bytecode-to-C compiler (every parameter is a separate blaze buffer).
type Config struct {
	// MayAlias lists groups of array names that may refer to overlapping
	// storage (e.g. a blaze entry point invoked with the same buffer
	// bound to two parameters). Accesses to different members of a group
	// are treated as conflicting with unknown distance.
	MayAlias [][]string
}

// AccessRef identifies one array access, with its kdsl source position
// when the bytecode line-number table provided one.
type AccessRef struct {
	Arr   string
	Index string // rendered subscript expression
	Pos   cir.Pos
	Write bool
}

func (a AccessRef) String() string {
	s := a.Arr + "[" + a.Index + "]"
	if a.Pos.Valid() {
		s += " @" + a.Pos.String()
	}
	return s
}

// Pair is one dependent access pair witnessing a verdict.
type Pair struct {
	A, B   AccessRef // A is a write; B is the conflicting access
	Output bool      // write-write (output) dependence
	Dist   int64     // minimum dependence distance in loop iterations
	Proven bool      // false when the analysis fell back to "unknown"
	Why    string    // reason the pair could not be proven (Proven=false)
}

func (p *Pair) String() string {
	kind := "flow"
	if p.Output {
		kind = "output"
	}
	s := fmt.Sprintf("%s %s -> %s", kind, p.A, p.B)
	if p.Proven {
		s += fmt.Sprintf(", distance %d", p.Dist)
	} else {
		s += " (" + p.Why + ")"
	}
	return s
}

// Verdict is the structured dependence result for one loop.
type Verdict struct {
	LoopID string
	Var    string
	Trip   int64 // constant trip count, 0 if unknown

	Kind    Kind
	MinDist int64  // minimum carried distance (valid for Kind==Pipeline)
	Pair    *Pair  // witness access pair, nil for DOALL
	Witness string // human rationale for Sequential

	// RaceCarried lists arrays with a carried (or unprovable) dependence
	// involving at least one read — the set parallel lanes would race on.
	RaceCarried []string
	// OutputCarried lists arrays with carried write-write conflicts only.
	OutputCarried []string
	// ArrDist maps each carried array to its minimum proven dependence
	// distance (1 for unproven pairs, the sound minimum claim).
	ArrDist map[string]int64

	// ScalarRec mirrors cir's detected scalar recurrences; ScalarSeq is
	// the subset not covered by the canonical reduction form (the part
	// that truly serializes lanes); Reductions names tree-reducible
	// accumulators; SelectChains names conditional-overwrite scalars
	// (argmax/argmin style) that hardware resolves with select logic.
	ScalarRec    []string
	ScalarSeq    []string
	Reductions   []string
	SelectChains []string
}

// Describe renders the verdict headline.
func (v *Verdict) Describe() string {
	switch v.Kind {
	case DOALL:
		s := "DOALL"
		if len(v.Reductions) > 0 {
			s += " (reduction: " + strings.Join(v.Reductions, ", ") + ")"
		}
		if len(v.SelectChains) > 0 {
			s += " (select-chain: " + strings.Join(v.SelectChains, ", ") + ")"
		}
		return s
	case Pipeline:
		var carried []string
		carried = append(carried, v.RaceCarried...)
		for _, a := range v.OutputCarried {
			if !containsStr(carried, a) {
				carried = append(carried, a)
			}
		}
		sort.Strings(carried)
		s := fmt.Sprintf("pipeline min-II distance %d", v.MinDist)
		if len(carried) > 0 {
			s += " (carried: " + strings.Join(carried, ", ") + ")"
		}
		if len(v.ScalarSeq) > 0 {
			s += " (scalar chain: " + strings.Join(v.ScalarSeq, ", ") + ")"
		}
		return s
	case Sequential:
		return "sequential: " + v.Witness
	}
	return "?"
}

// Analysis holds per-loop verdicts for one kernel.
type Analysis struct {
	Kernel   *cir.Kernel
	Info     *cir.KernelInfo
	Verdicts map[string]*Verdict
	Order    []string // loop IDs in preorder

	cfg   Config
	w     *walker
	class map[string]string // array name -> alias class
}

// Analyze runs the dependence analysis with the default configuration.
func Analyze(k *cir.Kernel) *Analysis { return AnalyzeWith(k, Config{}) }

// AnalyzeWith runs the dependence analysis with an explicit configuration.
func AnalyzeWith(k *cir.Kernel, cfg Config) *Analysis {
	return AnalyzeWithInfo(k, cir.Analyze(k), cfg)
}

// AnalyzeWithInfo is AnalyzeWith over an already computed loop-nest
// analysis of k, which the result keeps as its Info.
func AnalyzeWithInfo(k *cir.Kernel, info *cir.KernelInfo, cfg Config) *Analysis {
	an := &Analysis{
		Kernel:   k,
		Info:     info,
		Verdicts: map[string]*Verdict{},
		cfg:      cfg,
		class:    map[string]string{},
	}
	for i, group := range cfg.MayAlias {
		for _, name := range group {
			an.class[name] = fmt.Sprintf("alias-group-%d", i)
		}
	}
	an.w = newWalker()
	an.w.collectFacts(k.Body)
	an.w.walkBlock(k.Body)
	for _, li := range an.Info.All {
		n := an.w.nodes[li.Loop.ID]
		if n == nil {
			continue
		}
		an.Order = append(an.Order, li.Loop.ID)
		an.Verdicts[li.Loop.ID] = an.verdictFor(n, li)
	}
	return an
}

// Verdict returns the verdict for a loop ID, or nil.
func (a *Analysis) Verdict(id string) *Verdict { return a.Verdicts[id] }

// EffectiveRace returns the arrays whose carried dependences survive the
// reduce-output exemption: output accumulators of reduce-pattern kernels
// at the task loop become per-PE partials combined by a final tree, so
// parallel lanes never race on them. This mirrors the HLS estimator's
// serialization rule exactly.
func (a *Analysis) EffectiveRace(id string) []string {
	v := a.Verdicts[id]
	if v == nil {
		return nil
	}
	carried := v.RaceCarried
	if id == a.Kernel.TaskLoopID && a.Kernel.Pattern == cir.PatternReduce {
		isOutput := map[string]bool{}
		for _, p := range a.Kernel.Params {
			if p.IsOutput {
				isOutput[p.Name] = true
			}
		}
		var kept []string
		for _, arr := range carried {
			if !isOutput[arr] {
				kept = append(kept, arr)
			}
		}
		carried = kept
	}
	return carried
}

// Serializing reports whether parallel lanes of the loop provably
// contend on shared arrays after the reduce-output exemption — the
// condition under which the HLS estimator serializes the lanes.
func (a *Analysis) Serializing(id string) bool { return len(a.EffectiveRace(id)) > 0 }

// classOf maps an array name to its alias class (its own name unless
// grouped by Config.MayAlias).
func (a *Analysis) classOf(arr string) string {
	if c, ok := a.class[arr]; ok {
		return c
	}
	return arr
}

type pairClass uint8

const (
	classIndependent pairClass = iota
	classCarried
	classUnproven
)

func (an *Analysis) verdictFor(n *loopNode, li *cir.LoopInfo) *Verdict {
	v := &Verdict{
		LoopID:  n.loop.ID,
		Var:     n.loop.Var,
		Trip:    li.Trip,
		ArrDist: map[string]int64{},
	}
	v.ScalarRec = append([]string(nil), li.ScalarRec...)
	if len(li.ScalarRec) > 0 {
		if acc, _, ok := ReductionForm(n.loop); ok && len(li.ScalarRec) == 1 && li.ScalarRec[0] == acc {
			v.Reductions = []string{acc}
		} else {
			v.ScalarSeq = append([]string(nil), li.ScalarRec...)
		}
	}
	v.SelectChains = selectChains(n.loop, li)

	if n.loop.Step <= 0 {
		v.Kind = Sequential
		v.Witness = "non-positive loop step"
		// Every pair is unprovable under a non-canonical step: flag all
		// shared arrays with both a write and another access.
		v.RaceCarried, v.OutputCarried = conservativeCarried(n)
		for _, arr := range v.RaceCarried {
			v.ArrDist[arr] = 1
		}
		for _, arr := range v.OutputCarried {
			if _, ok := v.ArrDist[arr]; !ok {
				v.ArrDist[arr] = 1
			}
		}
		return v
	}

	raceSet := map[string]bool{}
	outSet := map[string]bool{}
	var witness *Pair   // minimum-distance carried witness
	var unproven *Pair  // first unprovable pair
	minDist := int64(0) // over carried pairs (0 = none yet)

	accs := n.accs
	for i := 0; i < len(accs); i++ {
		for j := i; j < len(accs); j++ {
			a, b := accs[i], accs[j]
			if !a.write && !b.write {
				continue
			}
			if i == j && !a.write {
				continue
			}
			if an.classOf(a.arr) != an.classOf(b.arr) {
				continue
			}
			if a.arr == b.arr && n.localArrs[a.arr] {
				// Declared inside the loop body: iteration-local storage.
				continue
			}
			cls, dist, why := an.testPair(n, a, b)
			if cls == classIndependent {
				continue
			}
			// Orient the pair write-first.
			wAcc, oAcc := a, b
			if !wAcc.write {
				wAcc, oAcc = b, a
			}
			p := &Pair{
				A:      accessRef(wAcc),
				B:      accessRef(oAcc),
				Output: a.write && b.write,
				Dist:   dist,
				Proven: cls == classCarried,
				Why:    why,
			}
			if p.Output {
				outSet[a.arr], outSet[b.arr] = true, true
			} else {
				raceSet[a.arr], raceSet[b.arr] = true, true
			}
			for _, arr := range []string{a.arr, b.arr} {
				if d, ok := v.ArrDist[arr]; !ok || dist < d {
					v.ArrDist[arr] = dist
				}
			}
			if cls == classUnproven {
				if unproven == nil {
					unproven = p
				}
				continue
			}
			if !p.Output && (witness == nil || dist < witness.Dist) {
				witness = p
			}
			if minDist == 0 || dist < minDist {
				minDist = dist
			}
		}
	}

	v.RaceCarried = sortedKeys(raceSet)
	//determinism:allow order-independent: per-key deletes, no cross-key effect
	for arr := range outSet {
		if raceSet[arr] {
			delete(outSet, arr)
		}
	}
	v.OutputCarried = sortedKeys(outSet)

	switch {
	case unproven != nil:
		v.Kind = Sequential
		v.Witness = unproven.Why
		v.Pair = unproven
	case witness != nil || minDist > 0 || len(v.ScalarSeq) > 0:
		v.Kind = Pipeline
		v.MinDist = minDist
		if len(v.ScalarSeq) > 0 && (v.MinDist == 0 || v.MinDist > 1) {
			// A non-reduction scalar recurrence is a distance-1 chain.
			v.MinDist = 1
		}
		v.Pair = witness
	default:
		v.Kind = DOALL
	}
	return v
}

// conservativeCarried lists, for a loop the analysis refuses to reason
// about, every non-local array with a write plus another access.
func conservativeCarried(n *loopNode) (race, output []string) {
	reads := map[string]bool{}
	writes := map[string]int{}
	for _, a := range n.accs {
		if a.write {
			writes[a.arr]++
		} else {
			reads[a.arr] = true
		}
	}
	raceSet := map[string]bool{}
	outSet := map[string]bool{}
	//determinism:allow order-independent: commutative set inserts on distinct keys
	for arr, wn := range writes {
		if n.localArrs[arr] {
			continue
		}
		if reads[arr] {
			raceSet[arr] = true
		} else if wn > 0 {
			outSet[arr] = true
		}
	}
	return sortedKeys(raceSet), sortedKeys(outSet)
}

func accessRef(a *access) AccessRef {
	return AccessRef{Arr: a.arr, Index: cir.ExprString(a.idx), Pos: a.pos, Write: a.write}
}

// testPair classifies the dependence between two accesses across
// iterations of loop n. Returns the class, the minimum distance (valid
// for classCarried), and a reason string for classUnproven.
func (an *Analysis) testPair(n *loopNode, a, b *access) (pairClass, int64, string) {
	if a.arr != b.arr {
		return classUnproven, 1, fmt.Sprintf("buffers %s and %s may alias", a.arr, b.arr)
	}
	if chainHasDupVars(a.chain) || chainHasDupVars(b.chain) {
		return classUnproven, 1, "shadowed induction variable in loop nest"
	}
	fa := decompose(a.idx, chainVarSet(a.chain))
	fb := decompose(b.idx, chainVarSet(b.chain))
	if !fa.ok || !fb.ok {
		return classUnproven, 1, fmt.Sprintf("non-affine subscript on %s", a.arr)
	}

	posL := chainIndex(a.chain, n)
	trip, tripKnown := tripOf(n.loop)

	// Accumulate every non-L term of (idx_a - idx_b) into the interval T.
	T := point(0)
	var cA, cB int64
	unboundedSym := ""
	for _, vn := range sortedUnion(fa.ind, fb.ind) {
		ca, cb := fa.ind[vn], fb.ind[vn]
		if vn == n.loop.Var {
			cA, cB = ca, cb
			continue
		}
		na := chainNodeFor(a.chain, vn)
		nb := chainNodeFor(b.chain, vn)
		nd := na
		if nd == nil {
			nd = nb
		}
		if pos := chainIndex(a.chain, nd); nd != nil && pos >= 0 && pos < posL {
			// Outer loop variable: fixed across the L-carried pair.
			if ca == cb {
				continue
			}
			T = T.add(nd.vrange.scale(ca - cb))
			continue
		}
		// Inner loop variable: independent instances on each side.
		if ca != 0 && na != nil {
			T = T.add(na.vrange.scale(ca))
		}
		if cb != 0 && nb != nil {
			T = T.add(nb.vrange.scale(-cb))
		}
	}
	for _, s := range sortedUnion(fa.syms, fb.syms) {
		ca, cb := fa.syms[s], fb.syms[s]
		if ca == cb && !n.assigned[s] {
			// Loop-invariant scalar with equal coefficients cancels.
			continue
		}
		ra := an.w.boundsAt(a, s)
		rb := an.w.boundsAt(b, s)
		if ca != 0 {
			if !ra.hasLo && !ra.hasHi {
				unboundedSym = s
			}
			T = T.add(ra.scale(ca))
		}
		if cb != 0 {
			if !rb.hasLo && !rb.hasHi {
				unboundedSym = s
			}
			T = T.add(rb.scale(-cb))
		}
	}
	cst, ok := satAdd(fa.cst, -fb.cst)
	if !ok {
		return classUnproven, 1, "subscript constant overflow"
	}
	T = T.add(point(cst))

	step := n.loop.Step
	if cA == cB {
		if cA == 0 {
			if tripKnown && trip <= 1 {
				return classIndependent, 0, ""
			}
			if T.contains(0) {
				if unboundedSym != "" && (!T.hasLo || !T.hasHi) {
					return classUnproven, 1, fmt.Sprintf("unbounded scalar %s in subscript", unboundedSym)
				}
				return classCarried, 1, ""
			}
			return classIndependent, 0, ""
		}
		u, uok := satMul(cA, step)
		if !uok {
			return classUnproven, 1, "subscript coefficient overflow"
		}
		neg := T.neg()
		maxK := int64(0)
		if tripKnown {
			maxK = trip - 1
		}
		best := int64(0)
		for _, w := range []int64{u, -u} {
			if k, found := minKIn(w, neg, maxK, tripKnown); found && (best == 0 || k < best) {
				best = k
			}
		}
		if best == 0 {
			return classIndependent, 0, ""
		}
		return classCarried, best, ""
	}

	// Mismatched coefficients of the loop variable: fall back to range
	// disjointness of the whole subscripts, then a GCD feasibility test.
	if tripKnown && trip <= 1 {
		return classIndependent, 0, ""
	}
	if disjoint(an.formRange(fa, a), an.formRange(fb, b)) {
		return classIndependent, 0, ""
	}
	if T.hasLo && T.hasHi && T.lo == T.hi {
		if lo, isLit := n.loop.Lo.(*cir.IntLit); isLit {
			k := -T.lo - (cA-cB)*lo.Val
			g := gcd(absI64(cA)*step, absI64(cB)*step)
			if g > 0 && k%g != 0 {
				return classIndependent, 0, ""
			}
		}
	}
	return classCarried, 1, ""
}

// minKIn finds the smallest k >= 1 (and <= maxK when maxKnown) such that
// w*k lies in the interval r; found=false when no such k exists.
func minKIn(w int64, r ival, maxK int64, maxKnown bool) (int64, bool) {
	if w == 0 {
		return 0, false
	}
	if w < 0 {
		w, r = -w, r.neg()
	}
	kLo := int64(1)
	if r.hasLo {
		if c := ceilDiv(r.lo, w); c > kLo {
			kLo = c
		}
	}
	kHi := int64(1) << 62
	if maxKnown && maxK < kHi {
		kHi = maxK
	}
	if r.hasHi {
		if c := floorDiv(r.hi, w); c < kHi {
			kHi = c
		}
	}
	if kLo > kHi {
		return 0, false
	}
	return kLo, true
}

// formRange bounds the whole subscript value of one access.
func (an *Analysis) formRange(f form, a *access) ival {
	r := point(f.cst)
	for _, vn := range sortedKeysI64(f.ind) {
		nd := chainNodeFor(a.chain, vn)
		if nd == nil {
			r = r.add(ival{}.scale(f.ind[vn]))
			continue
		}
		r = r.add(nd.vrange.scale(f.ind[vn]))
	}
	for _, s := range sortedKeysI64(f.syms) {
		r = r.add(an.w.boundsAt(a, s).scale(f.syms[s]))
	}
	return r
}

func tripOf(l *cir.Loop) (int64, bool) {
	lo, okLo := l.Lo.(*cir.IntLit)
	hi, okHi := l.Hi.(*cir.IntLit)
	if !okLo || !okHi || l.Step <= 0 {
		return 0, false
	}
	n := hi.Val - lo.Val
	if n <= 0 {
		return 0, true
	}
	return (n + l.Step - 1) / l.Step, true
}

// selectChains finds conditional-overwrite scalars (argmax/argmin style):
// declared outside the loop, written only under conditions, and not
// already classified as scalar recurrences.
func selectChains(l *cir.Loop, li *cir.LoopInfo) []string {
	declared := map[string]bool{}
	collectDeclared(l.Body, declared)
	isRec := map[string]bool{}
	for _, r := range li.ScalarRec {
		isRec[r] = true
	}
	cond := map[string]bool{}
	uncond := map[string]bool{}
	var walk func(b cir.Block, depth int)
	walk = func(b cir.Block, depth int) {
		for _, s := range b {
			switch s := s.(type) {
			case *cir.Assign:
				if vr, ok := s.LHS.(*cir.VarRef); ok && !declared[vr.Name] && !isRec[vr.Name] {
					if depth > 0 {
						cond[vr.Name] = true
					} else {
						uncond[vr.Name] = true
					}
				}
			case *cir.If:
				walk(s.Then, depth+1)
				walk(s.Else, depth+1)
			case *cir.Loop:
				walk(s.Body, depth)
			case *cir.While:
				walk(s.Body, depth)
			}
		}
	}
	walk(l.Body, 0)
	var out []string
	//determinism:allow collect-then-sort: the slice is sorted before returning
	for v := range cond {
		if !uncond[v] {
			out = append(out, v)
		}
	}
	sort.Strings(out)
	return out
}

func collectDeclared(b cir.Block, out map[string]bool) {
	for _, s := range b {
		switch s := s.(type) {
		case *cir.Decl:
			out[s.Name] = true
		case *cir.ArrDecl:
			out[s.Name] = true
		case *cir.If:
			collectDeclared(s.Then, out)
			collectDeclared(s.Else, out)
		case *cir.Loop:
			out[s.Var] = true
			collectDeclared(s.Body, out)
		case *cir.While:
			collectDeclared(s.Body, out)
		}
	}
}

// chain helpers

func chainVarSet(chain []*loopNode) func(string) bool {
	set := map[string]bool{}
	for _, n := range chain {
		set[n.loop.Var] = true
	}
	return func(name string) bool { return set[name] }
}

func chainHasDupVars(chain []*loopNode) bool {
	seen := map[string]bool{}
	for _, n := range chain {
		if seen[n.loop.Var] {
			return true
		}
		seen[n.loop.Var] = true
	}
	return false
}

func chainNodeFor(chain []*loopNode, varName string) *loopNode {
	for i := len(chain) - 1; i >= 0; i-- {
		if chain[i].loop.Var == varName {
			return chain[i]
		}
	}
	return nil
}

func chainIndex(chain []*loopNode, n *loopNode) int {
	for i, c := range chain {
		if c == n {
			return i
		}
	}
	return -1
}

// small helpers

func sortedKeys(m map[string]bool) []string {
	if len(m) == 0 {
		return nil
	}
	out := make([]string, 0, len(m))
	//determinism:allow collect-then-sort: keys are ordered before use
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedKeysI64(m map[string]int64) []string {
	if len(m) == 0 {
		return nil
	}
	out := make([]string, 0, len(m))
	//determinism:allow collect-then-sort: keys are ordered before use
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedUnion(a, b map[string]int64) []string {
	set := map[string]bool{}
	//determinism:allow order-independent: commutative set inserts, sorted by the caller
	for k := range a {
		set[k] = true
	}
	//determinism:allow order-independent: commutative set inserts, sorted by the caller
	for k := range b {
		set[k] = true
	}
	return sortedKeys(set)
}

func containsStr(s []string, v string) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return absI64(a)
}

func absI64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}
