package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"reusetool/pkg/client"
)

// TestCheckEndpointWorkload runs the checker against a built-in
// workload through the full HTTP surface via the typed client, pinning
// the paper's fig1a layout-mismatch with its miss delta and legality.
func TestCheckEndpointWorkload(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cl := client.New(ts.URL)
	resp, err := cl.Check(context.Background(), client.CheckRequest{Workload: "fig1a"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.APIVersion != client.APIVersion {
		t.Errorf("api_version = %q", resp.APIVersion)
	}
	if resp.Program != "fig1a" {
		t.Errorf("program = %q", resp.Program)
	}
	if resp.Findings == 0 {
		t.Fatalf("fig1a must report the layout mismatch; got %+v", resp)
	}
	var hit, ranked bool
	for _, d := range resp.Diagnostics {
		if d.Code != "layout-mismatch" {
			continue
		}
		hit = true
		if d.Severity != "opportunity" || d.Transform != "interchange" || d.Legality != "legal" {
			t.Errorf("layout-mismatch fields: %+v", d)
		}
		if d.Level != "L2" {
			t.Errorf("layout-mismatch level = %q", d.Level)
		}
		if d.MissDelta > 0 {
			ranked = true
		}
	}
	if !hit {
		t.Errorf("no layout-mismatch diagnostic in %+v", resp.Diagnostics)
	}
	if !ranked {
		t.Error("no layout-mismatch carries a positive miss delta")
	}
	// Diagnostics arrive in the canonical sorted order.
	for i := 1; i < len(resp.Diagnostics); i++ {
		a, b := resp.Diagnostics[i-1], resp.Diagnostics[i]
		if a.File > b.File || (a.File == b.File && a.Line > b.Line) {
			t.Errorf("diagnostics out of order at %d", i)
		}
	}
}

// TestCheckEndpointProgram submits inline .loop source with a seeded
// defect and checks the diagnostic comes back with its line.
func TestCheckEndpointProgram(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	src := `program bad
param N 8
param unused 3
array A f64 [N]
routine main file bad.f line 1 {
  for i = 0 .. N-1 line 2 {
    access A[i]!
    access A[i]!
  }
}
`
	cl := client.New(ts.URL)
	resp, err := cl.Check(context.Background(), client.CheckRequest{Program: src})
	if err != nil {
		t.Fatal(err)
	}
	var codes []string
	for _, d := range resp.Diagnostics {
		codes = append(codes, d.Code)
		if d.Code == "dead-store" && d.Line != 7 {
			t.Errorf("dead-store at line %d, want 7", d.Line)
		}
	}
	joined := strings.Join(codes, ",")
	for _, want := range []string{"dead-store", "unused-param"} {
		if !strings.Contains(joined, want) {
			t.Errorf("codes %v missing %s", codes, want)
		}
	}
}

// TestCheckEndpointLayoutDefect: a program whose arrays cannot be laid
// out is a finding with code layout, not a clean check.
func TestCheckEndpointLayoutDefect(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	src := `program z
param Z 0
array A f64 [4 / Z]
routine main file z.f line 1 {
  for i = 0 .. 3 line 2 {
    access A[i]
  }
}
`
	resp, err := client.New(ts.URL).Check(context.Background(), client.CheckRequest{Program: src})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Findings < 1 {
		t.Errorf("findings = %d, want >= 1", resp.Findings)
	}
	var hit bool
	for _, d := range resp.Diagnostics {
		if d.Code == "layout" {
			hit = true
			if d.Severity != "defect" || !strings.Contains(d.Msg, "division by zero") {
				t.Errorf("layout diagnostic: %+v", d)
			}
		}
	}
	if !hit {
		t.Errorf("no layout diagnostic in %+v", resp.Diagnostics)
	}
}

// TestCheckEndpointRejects pins the validation errors: both or neither
// source, unknown workload, unknown hierarchy/level, unknown fields, a
// program that does not parse.
func TestCheckEndpointRejects(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	post := func(body string) *client.Error {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/check", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return nil
		}
		var env client.ErrorEnvelope
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatalf("decode error envelope: %v", err)
		}
		return &client.Error{Status: resp.StatusCode, Code: env.Err.Code, Message: env.Err.Message}
	}
	cases := []struct {
		name, body, wantMsg string
	}{
		{"neither source", `{}`, "exactly one of workload or program"},
		{"both sources", `{"workload":"fig1a","program":"program p"}`, "exactly one of workload or program"},
		{"unknown workload", `{"workload":"nope"}`, "unknown workload"},
		{"bad hierarchy", `{"workload":"fig1a","hierarchy":"vax"}`, "unknown hierarchy"},
		{"bad level", `{"workload":"fig1a","level":"L9"}`, "no level"},
		{"bad param", `{"workload":"fig1a","params":{"BOGUS":1}}`, "no parameter"},
		{"unknown field", `{"workload":"fig1a","bogus":true}`, "bogus"},
		{"constant modulo by zero", `{"program":"program p\narray A f64 [4]\nroutine main {\n  access A[1 % 0]\n}\n"}`, "constant modulo by zero"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			apiErr := post(tc.body)
			if apiErr == nil {
				t.Fatal("request accepted, want 400")
			}
			if apiErr.Status != http.StatusBadRequest || apiErr.Code != client.CodeInvalidRequest {
				t.Errorf("status/code = %d/%s", apiErr.Status, apiErr.Code)
			}
			if !strings.Contains(apiErr.Message, tc.wantMsg) {
				t.Errorf("message %q does not mention %q", apiErr.Message, tc.wantMsg)
			}
		})
	}
}
