package depend

import "reusetool/internal/ir"

// Range is a conservative integer interval, the one interval domain of
// the static checker: the dependence analyzer bounds loop variables
// with it and internal/reusecheck runs its abstract interpreter on it.
// Each bound is only meaningful when its OK flag is set; a missing flag
// means the value is unbounded on that side, so the zero Range is the
// fully unbounded interval. Unless stated otherwise, operations
// over-approximate: the true value set is always contained in the
// result.
type Range struct {
	Lo, Hi     int64
	LoOK, HiOK bool
}

// Point is the singleton interval [v,v].
func Point(v int64) Range { return Range{Lo: v, Hi: v, LoOK: true, HiOK: true} }

// Const reports the single value of a singleton interval.
func (r Range) Const() (int64, bool) {
	return r.Lo, r.LoOK && r.HiOK && r.Lo == r.Hi
}

// Bounded reports whether both endpoints are present.
func (r Range) Bounded() bool { return r.LoOK && r.HiOK }

func addRange(a, b Range) Range {
	return Range{
		Lo: a.Lo + b.Lo, LoOK: a.LoOK && b.LoOK,
		Hi: a.Hi + b.Hi, HiOK: a.HiOK && b.HiOK,
	}
}

func negRange(a Range) Range {
	return Range{Lo: -a.Hi, LoOK: a.HiOK, Hi: -a.Lo, HiOK: a.LoOK}
}

func subRange(a, b Range) Range { return addRange(a, negRange(b)) }

// scaleRange multiplies by a constant.
func scaleRange(a Range, k int64) Range {
	switch {
	case k == 0:
		return Point(0)
	case k > 0:
		return Range{Lo: a.Lo * k, LoOK: a.LoOK, Hi: a.Hi * k, HiOK: a.HiOK}
	}
	return Range{Lo: a.Hi * k, LoOK: a.HiOK, Hi: a.Lo * k, HiOK: a.LoOK}
}

func mulRange(a, b Range) Range {
	if v, ok := a.Const(); ok {
		return scaleRange(b, v)
	}
	if v, ok := b.Const(); ok {
		return scaleRange(a, v)
	}
	if !a.Bounded() || !b.Bounded() {
		return Range{}
	}
	out := Point(a.Lo * b.Lo)
	for _, v := range [3]int64{a.Lo * b.Hi, a.Hi * b.Lo, a.Hi * b.Hi} {
		out.Lo = min(out.Lo, v)
		out.Hi = max(out.Hi, v)
	}
	return out
}

func divRange(a, b Range) Range {
	d, ok := b.Const()
	if !ok || d == 0 {
		return Range{}
	}
	// Go's truncated division is monotone in the numerator for a fixed
	// divisor sign.
	if d > 0 {
		return Range{Lo: a.Lo / d, LoOK: a.LoOK, Hi: a.Hi / d, HiOK: a.HiOK}
	}
	return Range{Lo: a.Hi / d, LoOK: a.HiOK, Hi: a.Lo / d, HiOK: a.LoOK}
}

// modRange bounds a modulo by a constant. The result's sign follows
// the dividend (Go's truncated %) and only the modulus's magnitude
// matters; a non-negative dividend already below the modulus comes
// back exact.
func modRange(a, b Range) Range {
	m, ok := b.Const()
	if !ok || m == 0 {
		return Range{}
	}
	if m < 0 {
		m = -m
	}
	if a.LoOK && a.Lo >= 0 {
		if a.HiOK && a.Hi < m {
			return a
		}
		return Range{Lo: 0, LoOK: true, Hi: m - 1, HiOK: true}
	}
	return Range{Lo: -(m - 1), LoOK: true, Hi: m - 1, HiOK: true}
}

func minRange(a, b Range) Range {
	out := Range{}
	if a.LoOK && b.LoOK {
		out.LoOK = true
		out.Lo = min(a.Lo, b.Lo)
	}
	// min(x,y) <= x, so either upper bound alone caps the result.
	switch {
	case a.HiOK && b.HiOK:
		out.HiOK = true
		out.Hi = min(a.Hi, b.Hi)
	case a.HiOK:
		out.HiOK = true
		out.Hi = a.Hi
	case b.HiOK:
		out.HiOK = true
		out.Hi = b.Hi
	}
	return out
}

func maxRange(a, b Range) Range {
	return negRange(minRange(negRange(a), negRange(b)))
}

// Eval bounds an expression's value given a variable resolver.
// Unresolvable variables and Loads yield unbounded results.
func Eval(e ir.Expr, resolve func(name string) Range) Range {
	switch x := e.(type) {
	case ir.Const:
		return Point(int64(x))
	case *ir.Var:
		return resolve(x.Name)
	case *ir.Bin:
		l := Eval(x.L, resolve)
		r := Eval(x.R, resolve)
		switch x.Op {
		case ir.OpAdd:
			return addRange(l, r)
		case ir.OpSub:
			return subRange(l, r)
		case ir.OpMul:
			return mulRange(l, r)
		case ir.OpDiv:
			return divRange(l, r)
		case ir.OpMod:
			return modRange(l, r)
		case ir.OpMin:
			return minRange(l, r)
		case ir.OpMax:
			return maxRange(l, r)
		}
	}
	return Range{}
}
