package reusecheck

import (
	"testing"

	"reusetool/internal/depend"
	"reusetool/internal/ir"
)

func iv(lo, hi int64) depend.Range { return depend.Range{Lo: lo, Hi: hi, LoOK: true, HiOK: true} }

func TestHullWiden(t *testing.T) {
	if got := hull(iv(0, 3), iv(5, 9)); got != iv(0, 9) {
		t.Errorf("hull = %+v", got)
	}
	if got := hull(iv(0, 3), depend.Range{}); got != (depend.Range{}) {
		t.Errorf("hull with top = %+v", got)
	}
	// Stable iterate: widening is the identity.
	if got := widen(iv(0, 9), iv(0, 9)); got != iv(0, 9) {
		t.Errorf("widen stable = %+v", got)
	}
	// A hi that moved jumps to +inf; the stable lo stays.
	got := widen(iv(0, 5), iv(0, 6))
	if !got.LoOK || got.Lo != 0 || got.HiOK {
		t.Errorf("widen growing hi = %+v", got)
	}
	// A lo that moved jumps to -inf.
	got = widen(iv(0, 5), iv(-1, 5))
	if got.LoOK || !got.HiOK || got.Hi != 5 {
		t.Errorf("widen shrinking lo = %+v", got)
	}
}

func TestCondDecide(t *testing.T) {
	cases := []struct {
		name string
		op   ir.CmpOp
		l, r depend.Range
		want int
	}{
		{"lt always", ir.CmpLt, iv(0, 4), iv(5, 9), 1},
		{"lt never", ir.CmpLt, iv(5, 9), iv(0, 5), -1},
		{"lt maybe", ir.CmpLt, iv(0, 5), iv(5, 9), 0},
		{"le always", ir.CmpLe, iv(0, 5), iv(5, 9), 1},
		{"ge always", ir.CmpGe, iv(5, 9), iv(0, 5), 1},
		{"gt never", ir.CmpGt, iv(0, 5), iv(5, 9), -1},
		{"eq const", ir.CmpEq, depend.Point(3), depend.Point(3), 1},
		{"eq disjoint", ir.CmpEq, iv(0, 2), iv(3, 5), -1},
		{"eq maybe", ir.CmpEq, iv(0, 3), iv(3, 5), 0},
		{"ne disjoint", ir.CmpNe, iv(0, 2), iv(3, 5), 1},
		{"ne const", ir.CmpNe, depend.Point(4), depend.Point(4), -1},
		{"unbounded", ir.CmpLt, depend.Range{}, iv(0, 5), 0},
	}
	for _, tc := range cases {
		if got := condDecide(tc.op, tc.l, tc.r); got != tc.want {
			t.Errorf("%s: condDecide = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestRefine(t *testing.T) {
	v := &ir.Var{Name: "i"}
	env := map[string]depend.Range{"i": iv(0, 9)}

	// Then branch of "if i < 5": i in [0,4].
	got := refine(env, ir.Lt(v, ir.C(5)), false)
	if got["i"] != iv(0, 4) {
		t.Errorf("i<5 then: %+v", got["i"])
	}
	// Else branch: i >= 5.
	got = refine(env, ir.Lt(v, ir.C(5)), true)
	if got["i"] != iv(5, 9) {
		t.Errorf("i<5 else: %+v", got["i"])
	}
	// Variable on the right flips the operator: "5 <= i" refines i >= 5.
	got = refine(env, ir.Le(ir.C(5), v), false)
	if got["i"] != iv(5, 9) {
		t.Errorf("5<=i then: %+v", got["i"])
	}
	// Equality pins both ends.
	got = refine(env, ir.Eq(v, ir.C(3)), false)
	if got["i"] != depend.Point(3) {
		t.Errorf("i==3 then: %+v", got["i"])
	}
	// A useless refinement returns the environment unchanged.
	same := refine(env, ir.Lt(v, ir.C(100)), false)
	if same["i"] != iv(0, 9) {
		t.Errorf("i<100 should not tighten: %+v", same["i"])
	}
	// The original environment is never mutated.
	if env["i"] != iv(0, 9) {
		t.Errorf("refine mutated its input: %+v", env["i"])
	}
}
