package xmlout

import (
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

type sample struct {
	Report *metrics.Report
	Info   *ir.Info
}

// sampleReport builds a report without internal/core (which imports this
// package).
func sampleReport(t *testing.T) *sample {
	t.Helper()
	prog := workloads.Fig2()
	info, err := prog.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	params := map[string]int64{"N": 64, "M": 16}
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
	return &sample{Report: rep, Info: info}
}

func TestMarshalStructure(t *testing.T) {
	res := sampleReport(t)
	data, err := Marshal(res.Report)
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	for _, want := range []string{
		`<ReuseToolExperiment`,
		`tool="reusetool"`,
		`program="fig2"`,
		`machine="ScaledItanium2"`,
		`<Metrics>`,
		`name="L2.misses"`,
		`<ScopeTree>`,
		`kind="program"`,
		`kind="loop"`,
		`<PatternDatabase>`,
		`array="A"`,
		`<FragmentationByArray>`,
	} {
		if !strings.Contains(s, want) {
			t.Errorf("marshalled XML missing %q", want)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	res := sampleReport(t)
	data, err := Marshal(res.Report)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if exp.Program != "fig2" || exp.Tool != "reusetool" {
		t.Errorf("header lost: %+v", exp)
	}
	if exp.Root == nil || exp.Root.Kind != "program" {
		t.Fatal("scope tree root lost")
	}
	// Scope count round-trips.
	var count func(x *XScope) int
	count = func(x *XScope) int {
		n := 1
		for _, c := range x.Children {
			n += count(c)
		}
		return n
	}
	if got, want := count(exp.Root), res.Info.Scopes.Len(); got != want {
		t.Errorf("scope count = %d, want %d", got, want)
	}
	// Levels and patterns survive.
	if len(exp.Levels) != len(res.Report.Levels) {
		t.Fatalf("levels = %d, want %d", len(exp.Levels), len(res.Report.Levels))
	}
	for i, xl := range exp.Levels {
		lr := res.Report.Levels[i]
		if xl.Name != lr.Level.Name {
			t.Errorf("level %d name %q != %q", i, xl.Name, lr.Level.Name)
		}
		if len(xl.Patterns) != len(lr.Patterns) {
			t.Errorf("level %s patterns = %d, want %d", xl.Name, len(xl.Patterns), len(lr.Patterns))
		}
		if xl.Total != lr.TotalMisses {
			t.Errorf("level %s total = %v, want %v", xl.Name, xl.Total, lr.TotalMisses)
		}
	}
}

func TestScopeMetricValues(t *testing.T) {
	res := sampleReport(t)
	exp := Build(res.Report)
	// The root's inclusive misses must equal the level total.
	var rootIncl float64
	for _, v := range exp.Root.Values {
		if v.Name == "L2.misses.incl" {
			rootIncl = v.Value
		}
	}
	if want := res.Report.Level("L2").TotalMisses; rootIncl != want {
		t.Errorf("root inclusive = %v, want %v", rootIncl, want)
	}
	// Four metrics per level per scope.
	if want := 4 * len(res.Report.Levels); len(exp.Root.Values) != want {
		t.Errorf("root metric values = %d, want %d", len(exp.Root.Values), want)
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	if _, err := Unmarshal([]byte("not xml at all <<<")); err == nil {
		t.Error("garbage should fail to parse")
	}
}
