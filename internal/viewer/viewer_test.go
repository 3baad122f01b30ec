package viewer

import (
	"bytes"
	"strings"
	"testing"

	"reusetool/internal/cache"
	"reusetool/internal/interp"
	"reusetool/internal/ir"
	"reusetool/internal/metrics"
	"reusetool/internal/reusedist"
	"reusetool/internal/staticanalysis"
	"reusetool/internal/workloads"
)

// buildReport runs the pipeline without internal/core (which imports this
// package).
func buildReport(t *testing.T, prog *ir.Program, params map[string]int64) *metrics.Report {
	t.Helper()
	info, err := prog.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	hier := cache.ScaledItanium2()
	col := reusedist.NewCollector(hier.Granularities(), 0)
	run, err := interp.Run(info, params, col)
	if err != nil {
		t.Fatal(err)
	}
	mach, err := interp.Layout(info, params)
	if err != nil {
		t.Fatal(err)
	}
	static := staticanalysis.Analyze(info, mach, staticanalysis.TripsFromRun(run, 1))
	rep, err := metrics.Build(info, col, static, hier, metrics.SetAssoc)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

type result struct{ Report *metrics.Report }

func sampleResult(t *testing.T) *result {
	t.Helper()
	return &result{Report: buildReport(t, workloads.Fig1(false), map[string]int64{"N": 128, "M": 128})}
}

func TestScopeTree(t *testing.T) {
	res := sampleResult(t)
	var buf bytes.Buffer
	if err := ScopeTree(&buf, res.Report, "L2", 0.01); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"L2 misses:", "SCOPE", "INCL", "program fig1a", "loop i", "loop j", "100.0%"} {
		if !strings.Contains(out, want) {
			t.Errorf("scope tree missing %q:\n%s", want, out)
		}
	}
	// Indentation deepens: the loop j line is indented more than loop i.
	iIdx := strings.Index(out, "loop i")
	jIdx := strings.Index(out, "loop j")
	if iIdx < 0 || jIdx < 0 || jIdx < iIdx {
		t.Error("loop nesting order wrong in output")
	}
}

func TestScopeTreeThresholdPrunes(t *testing.T) {
	res := sampleResult(t)
	var all, pruned bytes.Buffer
	if err := ScopeTree(&all, res.Report, "L2", 0); err != nil {
		t.Fatal(err)
	}
	// Every scope on fig1's single hot path has ~100% inclusive share, so
	// only an impossible threshold prunes the whole tree.
	if err := ScopeTree(&pruned, res.Report, "L2", 1.01); err != nil {
		t.Fatal(err)
	}
	if pruned.Len() >= all.Len() {
		t.Error("high threshold should prune output")
	}
}

func TestCarriedTable(t *testing.T) {
	res := sampleResult(t)
	var buf bytes.Buffer
	if err := CarriedTable(&buf, res.Report, "L2", 3); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "CARRYING SCOPE") || !strings.Contains(out, "loop i") {
		t.Errorf("carried table:\n%s", out)
	}
}

func TestPatternTable(t *testing.T) {
	res := sampleResult(t)
	var buf bytes.Buffer
	if err := PatternTable(&buf, res.Report, "L2", 5); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"ARRAY", "CARRYING", "self", "A", "B"} {
		if !strings.Contains(out, want) {
			t.Errorf("pattern table missing %q:\n%s", want, out)
		}
	}
	// Top limit respected: at most 5 data lines after the header.
	lines := strings.Count(strings.TrimSpace(out), "\n")
	if lines > 7 {
		t.Errorf("pattern table too long: %d lines", lines)
	}
}

func TestFragAndArrayTables(t *testing.T) {
	// Use the fig2 workload, which has real fragmentation.
	res := &result{Report: buildReport(t, workloads.Fig2(), map[string]int64{"N": 64, "M": 16})}
	var buf bytes.Buffer
	if err := FragTable(&buf, res.Report, "L2", 4); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "FRAG MISSES") {
		t.Errorf("frag table:\n%s", buf.String())
	}
	buf.Reset()
	if err := ArrayTable(&buf, res.Report, "L2", 4); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "ARRAY") || !strings.Contains(out, "A") {
		t.Errorf("array table:\n%s", out)
	}
}

func TestAdviceOutput(t *testing.T) {
	res := sampleResult(t)
	var buf bytes.Buffer
	if err := Advice(&buf, res.Report, "L2", 0.05); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Recommended transformations") ||
		!strings.Contains(out, "interchange") {
		t.Errorf("advice output:\n%s", out)
	}
	// No recommendations above an absurd threshold.
	buf.Reset()
	if err := Advice(&buf, res.Report, "L2", 1.5); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "No recommendations") {
		t.Errorf("expected empty-advice message, got:\n%s", buf.String())
	}
}

func TestUnknownLevelErrors(t *testing.T) {
	res := sampleResult(t)
	var buf bytes.Buffer
	for name, f := range map[string]func() error{
		"ScopeTree":    func() error { return ScopeTree(&buf, res.Report, "XX", 0) },
		"CarriedTable": func() error { return CarriedTable(&buf, res.Report, "XX", 3) },
		"PatternTable": func() error { return PatternTable(&buf, res.Report, "XX", 3) },
		"FragTable":    func() error { return FragTable(&buf, res.Report, "XX", 3) },
		"ArrayTable":   func() error { return ArrayTable(&buf, res.Report, "XX", 3) },
	} {
		if err := f(); err == nil {
			t.Errorf("%s: unknown level should error", name)
		}
	}
}

func TestCompareReports(t *testing.T) {
	before := &result{Report: buildReport(t, workloads.Fig1(false), map[string]int64{"N": 128, "M": 128})}
	after := &result{Report: buildReport(t, workloads.Fig1(true), map[string]int64{"N": 128, "M": 128})}
	var buf bytes.Buffer
	if err := Compare(&buf, before.Report, after.Report); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"fig1a -> fig1b", "LEVEL", "fewer", "movers", "A"} {
		if !strings.Contains(out, want) {
			t.Errorf("Compare missing %q:\n%s", want, out)
		}
	}
}

func TestChangeLabel(t *testing.T) {
	cases := []struct {
		b, a float64
		want string
	}{
		{100, 100, "unchanged"},
		{100, 0, "eliminated"},
		{0, 100, "new"},
		{100, 50, "2.0x fewer"},
		{50, 100, "2.0x more"},
	}
	for _, c := range cases {
		if got := changeLabel(c.b, c.a); got != c.want {
			t.Errorf("changeLabel(%v,%v) = %q, want %q", c.b, c.a, got, c.want)
		}
	}
}
