package main

import (
	"hash"
	"hash/fnv"
	"math"

	"s2fa/internal/cir"
	"s2fa/internal/dse"
	"s2fa/internal/jvmsim"
	"s2fa/internal/kdslgen"
)

// fp accumulates an FNV-1a fingerprint of request outputs; the traced
// run must reproduce the untraced run's fingerprints exactly.
type fp struct{ h hash.Hash64 }

func newFP() *fp { return &fp{h: fnv.New64a()} }

func (f *fp) u64(v uint64) {
	var b [8]byte
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
	f.h.Write(b[:])
}

func (f *fp) i64(v int64)       { f.u64(uint64(v)) }
func (f *fp) f64(v float64)     { f.u64(math.Float64bits(v)) }
func (f *fp) str(s string)      { f.i64(int64(len(s))); f.h.Write([]byte(s)) }
func (f *fp) sum() uint64       { return f.h.Sum64() }
func (f *fp) value(v cir.Value) { f.i64(int64(v.K)); f.i64(v.I); f.f64(v.F) }

// outcome covers everything a DSE run reports: the chosen point and its
// objective, the whole best-so-far trajectory, the virtual time, and the
// prune/collapse counters.
func (f *fp) outcome(o *dse.Outcome) {
	f.str(o.KernelName)
	f.str(o.Best.Point.Key())
	f.f64(o.Best.Objective)
	f.f64(o.FirstFeasible)
	f.f64(o.FirstFeasibleMinutes)
	f.i64(int64(len(o.Trajectory)))
	for _, p := range o.Trajectory {
		f.f64(p.Minutes)
		f.f64(p.Objective)
	}
	f.f64(o.TotalMinutes)
	for _, n := range []int{o.Evaluations, len(o.Partitions), o.StaticallyPruned, o.PrunedDomainValues,
		o.DependPruned, o.AccessPruned, o.RangeCollapsed, o.RangeRestrictedValues} {
		f.i64(int64(n))
	}
	f.str(string(o.StopReason))
}

func (f *fp) val(v jvmsim.Val) {
	switch {
	case v.IsTup:
		f.str("tup")
		f.i64(int64(len(v.Tup)))
		for _, t := range v.Tup {
			f.val(t)
		}
	case v.IsArr:
		f.str("arr")
		f.i64(int64(len(v.Arr)))
		for _, x := range v.Arr {
			f.value(x)
		}
	default:
		f.value(v.S)
	}
}

// sameScalar is bit-exact equality (NaNs of equal payload are equal).
func sameScalar(a, b cir.Value) bool {
	if a.K != b.K {
		return false
	}
	if a.K.IsFloat() {
		return math.Float64bits(a.F) == math.Float64bits(b.F)
	}
	return a.I == b.I
}

func sameVal(a, b jvmsim.Val) bool {
	switch {
	case a.IsTup:
		if !b.IsTup || len(a.Tup) != len(b.Tup) {
			return false
		}
		for i := range a.Tup {
			if !sameVal(a.Tup[i], b.Tup[i]) {
				return false
			}
		}
		return true
	case a.IsArr:
		if !b.IsArr || len(a.Arr) != len(b.Arr) {
			return false
		}
		for i := range a.Arr {
			if !sameScalar(a.Arr[i], b.Arr[i]) {
				return false
			}
		}
		return true
	default:
		return !b.IsArr && !b.IsTup && sameScalar(a.S, b.S)
	}
}

// sameField compares a kdslgen reference result with a JVM-shaped one.
func sameField(ref kdslgen.FieldVal, got jvmsim.Val) bool {
	if ref.IsArr {
		return sameVal(jvmsim.Array(ref.Arr), got)
	}
	return sameVal(jvmsim.Scalar(ref.S), got)
}

// copyVal deep-copies a value: the JVM reduce combiner accumulates into
// its first argument in place.
func copyVal(v jvmsim.Val) jvmsim.Val {
	switch {
	case v.IsTup:
		fs := make([]jvmsim.Val, len(v.Tup))
		for i := range v.Tup {
			fs[i] = copyVal(v.Tup[i])
		}
		return jvmsim.Tuple(fs...)
	case v.IsArr:
		return jvmsim.Array(append([]cir.Value(nil), v.Arr...))
	default:
		return v
	}
}

// mix derives an independent stream seed from a run seed and an index.
func mix(seed int64, parts ...int64) int64 {
	f := newFP()
	f.i64(seed)
	for _, p := range parts {
		f.i64(p)
	}
	return int64(f.sum() & math.MaxInt64)
}

// nameSeed derives a stream seed from a run seed and a name.
func nameSeed(seed int64, name string) int64 {
	f := newFP()
	f.str(name)
	return mix(seed, int64(f.sum()&math.MaxInt64))
}
