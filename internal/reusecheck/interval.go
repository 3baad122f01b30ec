package reusecheck

import (
	"maps"

	"reusetool/internal/depend"
	"reusetool/internal/ir"
)

// The abstract interpreter's lattice is depend.Range, shared with the
// dependence analyzer, whose transfer functions and evaluator it uses.
// This file adds what only the interpreter needs: the join and the
// widening, branch decisions and branch refinement. There is no bottom
// element — the walker tracks unreachable states through its
// reachability flag, not through values.

// hull is the lattice join: the smallest interval containing both.
func hull(a, b depend.Range) depend.Range {
	var out depend.Range
	if a.LoOK && b.LoOK {
		out.LoOK = true
		out.Lo = min(a.Lo, b.Lo)
	}
	if a.HiOK && b.HiOK {
		out.HiOK = true
		out.Hi = max(a.Hi, b.Hi)
	}
	return out
}

// widen is the standard interval widening: any endpoint that moved
// between consecutive iterates jumps straight to infinity, cutting the
// lattice's infinite ascending chains to length one. The walker applies
// it by havocking loop-mutated bindings at loop entry (see walk.go).
func widen(prev, next depend.Range) depend.Range {
	out := next
	if !prev.LoOK || (next.LoOK && next.Lo < prev.Lo) {
		out.LoOK = false
	}
	if !prev.HiOK || (next.HiOK && next.Hi > prev.Hi) {
		out.HiOK = false
	}
	return out
}

// condDecide decides a comparison between two intervals: +1 when it
// always holds, -1 when it never holds, 0 when undecided.
func condDecide(op ir.CmpOp, l, r depend.Range) int {
	lt := func(a, b depend.Range) int { // a < b
		if a.HiOK && b.LoOK && a.Hi < b.Lo {
			return 1
		}
		if a.LoOK && b.HiOK && a.Lo >= b.Hi {
			return -1
		}
		return 0
	}
	le := func(a, b depend.Range) int { // a <= b
		if a.HiOK && b.LoOK && a.Hi <= b.Lo {
			return 1
		}
		if a.LoOK && b.HiOK && a.Lo > b.Hi {
			return -1
		}
		return 0
	}
	switch op {
	case ir.CmpLt:
		return lt(l, r)
	case ir.CmpLe:
		return le(l, r)
	case ir.CmpGt:
		return lt(r, l)
	case ir.CmpGe:
		return le(r, l)
	case ir.CmpEq:
		if lc, ok := l.Const(); ok {
			if rc, ok := r.Const(); ok && lc == rc {
				return 1
			}
		}
		if disjoint(l, r) {
			return -1
		}
		return 0
	case ir.CmpNe:
		if disjoint(l, r) {
			return 1
		}
		if lc, ok := l.Const(); ok {
			if rc, ok := r.Const(); ok && lc == rc {
				return -1
			}
		}
		return 0
	}
	return 0
}

// disjoint reports whether two intervals provably share no value.
func disjoint(l, r depend.Range) bool {
	if l.HiOK && r.LoOK && l.Hi < r.Lo {
		return true
	}
	if l.LoOK && r.HiOK && l.Lo > r.Hi {
		return true
	}
	return false
}

// refine tightens the interval of a variable that a branch condition
// constrains: inside the Then branch of "if v < e" the walker may
// assume v < e. Only single-variable-vs-expression conditions refine;
// anything else returns the environment unchanged. negate applies the
// complement (the Else branch).
func refine(env map[string]depend.Range, c ir.Cond, negate bool) map[string]depend.Range {
	v, ok := c.L.(*ir.Var)
	bound := c.R
	op := c.Op
	if !ok {
		v, ok = c.R.(*ir.Var)
		if !ok {
			return env
		}
		bound = c.L
		op = flipCmp(c.Op)
	}
	if negate {
		op = negateCmp(op)
	}
	b := eval(bound, env)
	cur := env[v.Name]
	out := cur
	switch op {
	case ir.CmpLt: // v < b  =>  v <= b.Hi-1
		if b.HiOK {
			out = clampHi(out, b.Hi-1)
		}
	case ir.CmpLe:
		if b.HiOK {
			out = clampHi(out, b.Hi)
		}
	case ir.CmpGt:
		if b.LoOK {
			out = clampLo(out, b.Lo+1)
		}
	case ir.CmpGe:
		if b.LoOK {
			out = clampLo(out, b.Lo)
		}
	case ir.CmpEq:
		if b.LoOK {
			out = clampLo(out, b.Lo)
		}
		if b.HiOK {
			out = clampHi(out, b.Hi)
		}
	case ir.CmpNe:
		return env // nothing useful to refine
	}
	if out == cur {
		return env
	}
	next := maps.Clone(env)
	next[v.Name] = out
	return next
}

// eval bounds an expression under an interval environment; unbound
// variables are unbounded, the zero Range.
func eval(e ir.Expr, env map[string]depend.Range) depend.Range {
	return depend.Eval(e, func(name string) depend.Range { return env[name] })
}

func clampHi(iv depend.Range, hi int64) depend.Range {
	if !iv.HiOK || hi < iv.Hi {
		iv.HiOK = true
		iv.Hi = hi
	}
	return iv
}

func clampLo(iv depend.Range, lo int64) depend.Range {
	if !iv.LoOK || lo > iv.Lo {
		iv.LoOK = true
		iv.Lo = lo
	}
	return iv
}

// flipCmp mirrors an operator across its operands (a op b == b flip(op) a).
func flipCmp(op ir.CmpOp) ir.CmpOp {
	switch op {
	case ir.CmpLt:
		return ir.CmpGt
	case ir.CmpLe:
		return ir.CmpGe
	case ir.CmpGt:
		return ir.CmpLt
	case ir.CmpGe:
		return ir.CmpLe
	}
	return op
}

// negateCmp complements an operator.
func negateCmp(op ir.CmpOp) ir.CmpOp {
	switch op {
	case ir.CmpLt:
		return ir.CmpGe
	case ir.CmpLe:
		return ir.CmpGt
	case ir.CmpGt:
		return ir.CmpLe
	case ir.CmpGe:
		return ir.CmpLt
	case ir.CmpEq:
		return ir.CmpNe
	case ir.CmpNe:
		return ir.CmpEq
	}
	return op
}
