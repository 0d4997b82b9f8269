package compile

import (
	"testing"
	"unsafe"
)

// within reports whether s's bytes lie inside src's.
func within(s, src string) bool {
	if len(s) == 0 {
		return false
	}
	p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
	lo := uintptr(unsafe.Pointer(unsafe.StringData(src)))
	return p >= lo && p < lo+uintptr(len(src))
}

// TestInternStringDoesNotPinSource checks that interning a substring of a
// source stores a copy: the interner outlives every compile on its
// Scratch, so aliasing the source would keep each kernel's whole text
// alive for as long as the Scratch.
func TestInternStringDoesNotPinSource(t *testing.T) {
	src := "class Gen17 extends Accelerator { def call(x: Int): Int = x }"
	name := src[6:11]
	if name != "Gen17" || !within(name, src) {
		t.Fatalf("fixture: %q is not a substring of the source", name)
	}
	in := NewInterner()
	got := in.InternString(name)
	if got != "Gen17" {
		t.Fatalf("InternString = %q, want Gen17", got)
	}
	if within(got, src) {
		t.Error("interned string points into the source's bytes")
	}
	if again := in.InternString(src[6:11]); unsafe.StringData(again) != unsafe.StringData(got) {
		t.Error("second sight did not return the canonical copy")
	}
	if byBytes := in.Intern([]byte("Gen17")); unsafe.StringData(byBytes) != unsafe.StringData(got) {
		t.Error("Intern did not return the canonical copy")
	}
}
