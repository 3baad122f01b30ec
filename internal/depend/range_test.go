package depend

import (
	"testing"

	"reusetool/internal/ir"
)

func iv(lo, hi int64) Range { return Range{Lo: lo, Hi: hi, LoOK: true, HiOK: true} }

func TestRangeBasics(t *testing.T) {
	if (Range{}).Bounded() || (Range{}).LoOK || (Range{}).HiOK {
		t.Error("zero Range is not unbounded")
	}
	if v, ok := Point(7).Const(); !ok || v != 7 {
		t.Errorf("Point(7).Const = %d,%v", v, ok)
	}
	if _, ok := iv(1, 2).Const(); ok {
		t.Error("non-singleton reported Const")
	}
	if !iv(0, 3).Bounded() || (Range{Lo: 0, LoOK: true}).Bounded() {
		t.Error("Bounded flags wrong")
	}
}

func TestRangeArith(t *testing.T) {
	cases := []struct {
		name string
		got  Range
		want Range
	}{
		{"add", addRange(iv(1, 2), iv(10, 20)), iv(11, 22)},
		{"sub", subRange(iv(1, 2), iv(10, 20)), iv(-19, -8)},
		{"neg", negRange(iv(-3, 5)), iv(-5, 3)},
		{"scale pos", scaleRange(iv(1, 3), 4), iv(4, 12)},
		{"scale neg", scaleRange(iv(1, 3), -2), iv(-6, -2)},
		{"scale zero", scaleRange(Range{}, 0), Point(0)},
		{"mul signs", mulRange(iv(-2, 3), iv(-5, 7)), iv(-15, 21)},
		{"mul const", mulRange(Point(3), iv(1, 2)), iv(3, 6)},
		{"mul unbounded", mulRange(iv(-2, 3), Range{Lo: 1, LoOK: true}), Range{}},
		{"div", divRange(iv(-7, 9), Point(2)), iv(-3, 4)},
		{"div neg", divRange(iv(2, 9), Point(-3)), iv(-3, 0)},
		{"div nonconst", divRange(iv(0, 9), iv(1, 2)), Range{}},
		{"div zero", divRange(iv(0, 9), Point(0)), Range{}},
		{"mod in range", modRange(iv(0, 3), Point(8)), iv(0, 3)},
		// A non-negative dividend below the modulus keeps its lower
		// bound, not just its upper one.
		{"mod in range exact", modRange(iv(2, 5), Point(8)), iv(2, 5)},
		{"mod nonneg", modRange(iv(0, 100), Point(8)), iv(0, 7)},
		{"mod signed", modRange(Range{}, Point(8)), iv(-7, 7)},
		// Only the modulus's magnitude matters: a negative modulus
		// still bounds the result.
		{"mod neg modulus", modRange(iv(0, 100), Point(-8)), iv(0, 7)},
		{"mod neg modulus signed", modRange(Range{}, Point(-8)), iv(-7, 7)},
		{"mod nonconst", modRange(iv(0, 9), iv(1, 2)), Range{}},
		{"min", minRange(iv(0, 5), iv(2, 3)), iv(0, 3)},
		{"min one bound", minRange(Range{}, iv(2, 3)), Range{Hi: 3, HiOK: true}},
		{"max", maxRange(iv(0, 5), iv(2, 7)), iv(2, 7)},
		{"max one bound", maxRange(Range{}, iv(2, 3)), Range{Lo: 2, LoOK: true}},
	}
	for _, tc := range cases {
		if tc.got != tc.want {
			t.Errorf("%s = %+v, want %+v", tc.name, tc.got, tc.want)
		}
	}
}

func TestEval(t *testing.T) {
	n := &ir.Var{Name: "n"}
	env := map[string]Range{"n": iv(0, 9)}
	resolve := func(name string) Range { return env[name] }
	// 2*n + 1 over n in [0,9] = [1,19]
	e := ir.Add(ir.Mul(ir.C(2), n), ir.C(1))
	if got := Eval(e, resolve); got != iv(1, 19) {
		t.Errorf("2n+1 = %+v", got)
	}
	// (n+2) % 16 over n in [0,9] stays exact: [2,11].
	if got := Eval(ir.Mod(ir.Add(n, ir.C(2)), ir.C(16)), resolve); got != iv(2, 11) {
		t.Errorf("(n+2)%%16 = %+v", got)
	}
	// Unknown variable evaluates to unbounded.
	if got := Eval(&ir.Var{Name: "m"}, resolve); got != (Range{}) {
		t.Errorf("unknown var = %+v", got)
	}
	// Loads are opaque.
	if got := Eval(&ir.Load{}, resolve); got != (Range{}) {
		t.Errorf("load = %+v", got)
	}
}
