package reusecheck

import (
	"fmt"

	"reusetool/internal/depend"
	"reusetool/internal/ir"
	"reusetool/internal/trace"
)

// defects runs the dependence-level defect rules: provably empty
// loops, provably out-of-bounds subscripts, data arrays read but never
// written or initialized, and unused parameters. The first two read the
// dependence analyzer's facts — zero-trip tests over the parameters and
// enclosing loop ranges, exact affine extents in unguarded rectangular
// nests — rather than the walker's branch-refined environment, so every
// finding holds for each execution with the given parameters.
func defects(info *ir.Info, deps *depend.Analysis, w *walker, opts Options, fileOf func(*ir.Routine) string) []Diagnostic {
	var out []Diagnostic
	report := func(file string, line int, code, format string, args ...any) {
		out = append(out, Diagnostic{File: file, Line: line, Code: code, Severity: SevDefect,
			Msg: fmt.Sprintf(format, args...)})
	}

	for l := range w.trips2 { // every loop of the program
		if f := deps.Loop(l); f.Empty {
			report(fileOf(f.Routine), l.Line, "empty-loop", "loop %s from %s to %s by %d never executes",
				l.Var.Name, f.Lo, f.Hi, f.Step)
		}
	}

	for id, fact := range w.facts {
		if fact == nil {
			continue
		}
		for d := range fact.ref.Index {
			lo, hi, ok := deps.Extent(trace.RefID(id), d)
			if !ok {
				continue
			}
			if ext, ok := w.dimExtent(fact.ref.Array, d); ok && (lo < 0 || hi > ext-1) {
				report(fileOf(fact.routine), fact.ref.Line, "oob", "subscript %d of %s spans [%d,%d], outside [0,%d]",
					d, fact.ref.Name(), lo, hi, ext-1)
			}
		}
	}

	// Data arrays read through Load with no write reference and no init
	// declaration.
	if !opts.AssumeInitialized {
		written := map[*ir.Array]bool{}
		for _, r := range info.Refs {
			if r.Write {
				written[r.Array] = true
			}
		}
		type site struct {
			file string
			line int
		}
		firstLoad := map[*ir.Array]site{}
		for _, rt := range info.Prog.Routines {
			eachExpr(rt.Body, func(e ir.Expr, line int) {
				ir.WalkExpr(e, func(x ir.Expr) {
					ld, ok := x.(*ir.Load)
					if !ok {
						return
					}
					if _, seen := firstLoad[ld.Array]; !seen {
						ln := ld.Line
						if ln == 0 {
							ln = line
						}
						firstLoad[ld.Array] = site{file: fileOf(rt), line: ln}
					}
				})
			})
		}
		for _, arr := range info.Prog.Arrays {
			s, loaded := firstLoad[arr]
			if arr.Data && loaded && !written[arr] && !opts.Initialized[arr] {
				report(s.file, s.line, "uninit-data", "data array %q is read through load but never written or initialized", arr.Name)
			}
		}
	}

	// Declared parameters no expression mentions.
	used := map[string]bool{}
	markVars := func(e ir.Expr, _ int) {
		ir.WalkExpr(e, func(x ir.Expr) {
			if v, ok := x.(*ir.Var); ok {
				used[v.Name] = true
			}
		})
	}
	for _, rt := range info.Prog.Routines {
		eachExpr(rt.Body, markVars)
	}
	for _, arr := range info.Prog.Arrays {
		for _, dim := range arr.Dims {
			markVars(dim, 0)
		}
	}
	for name := range info.Prog.Defaults {
		if !used[name] {
			report(fileOf(nil), opts.ParamLines[name], "unused-param", "parameter %q is declared but never used", name)
		}
	}
	return out
}

// eachExpr visits every expression in a statement body with the line
// of its carrying statement as fallback position.
func eachExpr(body []ir.Stmt, f func(e ir.Expr, line int)) {
	for _, s := range body {
		switch st := s.(type) {
		case *ir.Loop:
			f(st.Lo, st.Line)
			f(st.Hi, st.Line)
			f(st.Step, st.Line)
			eachExpr(st.Body, f)
		case *ir.Let:
			f(st.E, st.Line)
		case *ir.If:
			f(st.Cond.L, 0)
			f(st.Cond.R, 0)
			eachExpr(st.Then, f)
			eachExpr(st.Else, f)
		case *ir.Access:
			for _, r := range st.Refs {
				for _, idx := range r.Index {
					f(idx, r.Line)
				}
			}
		}
	}
}
