package core

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"reusetool/internal/advise"
	"reusetool/internal/reusecheck"
	"reusetool/internal/workloads"
)

// TestSummaryGolden locks Result.WriteSummary byte for byte, in static
// and dynamic mode, including the "Static reuse opportunities" section
// the reuse checker ranks. Regenerate deliberately with:
// go test ./internal/core -run SummaryGolden -update
func TestSummaryGolden(t *testing.T) {
	for _, name := range []string{"fig1a", "stencil"} {
		for _, mode := range []string{"static", "dynamic"} {
			t.Run(name+"."+mode, func(t *testing.T) {
				prog, init, err := workloads.Build(name)
				if err != nil {
					t.Fatal(err)
				}
				var src Source = DynamicSource{Prog: prog, Init: init}
				if mode == "static" {
					src = StaticSource{Prog: prog}
				}
				res, err := Pipeline{Source: src}.Run()
				if err != nil {
					t.Fatal(err)
				}
				var got bytes.Buffer
				if err := res.WriteSummary(&got, "L2", 0.02); err != nil {
					t.Fatal(err)
				}
				golden := filepath.Join("testdata", name+"."+mode+".summary.golden")
				if *updateGolden {
					if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
						t.Fatal(err)
					}
				}
				want, err := os.ReadFile(golden)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Bytes(), want) {
					t.Errorf("summary drifted from golden file %s (rerun with -update if intended)\ngot:\n%s", golden, got.Bytes())
				}
			})
		}
	}
}

// TestStaticOpportunitiesMatchCheck: a static result ranks its
// opportunities from the estimate the run built, and that ranking is
// the one an independent reusecheck.Check of the same program gives.
func TestStaticOpportunitiesMatchCheck(t *testing.T) {
	for _, name := range []string{"fig1a", "stencil", "sweep3d"} {
		t.Run(name, func(t *testing.T) {
			prog, _, err := workloads.Build(name)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Pipeline{Source: StaticSource{Prog: prog}}.Run()
			if err != nil {
				t.Fatal(err)
			}
			got := res.Opportunities("L2")
			if len(got) == 0 {
				t.Fatal("no opportunities ranked")
			}
			diags := reusecheck.Check(res.Info, reusecheck.Options{AssumeInitialized: true, Level: "L2"})
			want := advise.Opportunities(diags, res.Report.Level("L2").TotalMisses)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("Opportunities differs from an independent check:\ngot  %+v\nwant %+v", got, want)
			}
		})
	}
}
