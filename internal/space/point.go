package space

import (
	"encoding/binary"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// layout is the immutable parameter naming shared by a space and every
// space derived from it (Restrict, PruneStatic, RestrictFromRanges): the
// names in Space.Params order, the permutation that visits them in sorted
// name order, and the "name=" prefixes Key writes.
type layout struct {
	names    []string
	index    map[string]int
	sorted   []int
	prefixes []string
	// keyFixed is the byte length of Key's output without the digits:
	// every prefix plus one ';' per parameter.
	keyFixed int
}

func newLayout(params []Param) *layout {
	l := &layout{
		names:    make([]string, len(params)),
		index:    make(map[string]int, len(params)),
		sorted:   make([]int, len(params)),
		prefixes: make([]string, len(params)),
	}
	for i := range params {
		name := params[i].Name
		l.names[i] = name
		l.index[name] = i
		l.sorted[i] = i
		l.prefixes[i] = name + "="
		l.keyFixed += len(name) + 2
	}
	sort.Slice(l.sorted, func(a, b int) bool { return l.names[l.sorted[a]] < l.names[l.sorted[b]] })
	return l
}

// Point is a complete design-point assignment: one value per parameter,
// aligned with the Params of the space that made it. Like a map, a Point
// is a reference: copies share the values, so clone before mutating. The
// zero Point assigns nothing.
type Point struct {
	l    *layout
	vals []int
}

// NewPoint returns a point of s with every parameter set to 0.
func (s *Space) NewPoint() Point {
	return Point{l: s.l, vals: make([]int, len(s.Params))}
}

// IsZero reports whether pt is the zero Point.
func (pt Point) IsZero() bool { return pt.l == nil }

// Len returns the number of parameters pt assigns.
func (pt Point) Len() int { return len(pt.vals) }

// At returns the value of the i-th parameter.
func (pt Point) At(i int) int { return pt.vals[i] }

// Set assigns v to the i-th parameter, in place.
func (pt Point) Set(i, v int) { pt.vals[i] = v }

// Get returns the value of the named parameter.
func (pt Point) Get(name string) (int, bool) {
	if pt.l == nil {
		return 0, false
	}
	i, ok := pt.l.index[name]
	if !ok {
		return 0, false
	}
	return pt.vals[i], true
}

// SortedOrder returns the parameter positions in ascending name order,
// the order Key writes them in. The slice is shared; do not modify it.
func (pt Point) SortedOrder() []int {
	if pt.l == nil {
		return nil
	}
	return pt.l.sorted
}

// Clone copies the point.
func (pt Point) Clone() Point {
	if pt.l == nil {
		return Point{}
	}
	return Point{l: pt.l, vals: append([]int(nil), pt.vals...)}
}

// Equal reports whether pt and o have the same Key, comparing values
// directly when both are points of one layout.
func (pt Point) Equal(o Point) bool {
	if pt.l != o.l {
		return pt.Key() == o.Key()
	}
	return slices.Equal(pt.vals, o.vals)
}

// Key returns a canonical string identity for reporting and traces:
// "name=value;" per parameter in sorted name order.
func (pt Point) Key() string {
	if pt.l == nil {
		return ""
	}
	n := pt.l.keyFixed
	for _, v := range pt.vals {
		n += digits(v)
	}
	var b strings.Builder
	b.Grow(n)
	var num [20]byte
	for _, i := range pt.l.sorted {
		b.WriteString(pt.l.prefixes[i])
		b.Write(strconv.AppendInt(num[:0], int64(pt.vals[i]), 10))
		b.WriteByte(';')
	}
	return b.String()
}

// String implements fmt.Stringer with Key.
func (pt Point) String() string { return pt.Key() }

// digits returns the length of v's base-10 representation.
func digits(v int) int {
	n := 1
	if v < 0 {
		n++
	}
	for v >= 10 || v <= -10 {
		v /= 10
		n++
	}
	return n
}

// PackedKey is a point's fixed-width binary identity: every value as 8
// little-endian bytes in parameter order. Two points of one layout have
// equal packed keys exactly when they have equal Keys. Values, not domain
// ordinals, are encoded, so out-of-domain points stay distinct.
type PackedKey string

// Packed returns pt's packed key.
func (pt Point) Packed() PackedKey {
	var b strings.Builder
	b.Grow(8 * len(pt.vals))
	var word [8]byte
	for _, v := range pt.vals {
		binary.LittleEndian.PutUint64(word[:], uint64(v))
		b.Write(word[:])
	}
	return PackedKey(b.String())
}
