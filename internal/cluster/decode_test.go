package cluster

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"reusetool/internal/server"
	"reusetool/pkg/client"
)

// TestRequestDecodingRejects: every JSON endpoint of the worker daemon
// and of the coordinator answers an oversized body with 413 too_large
// and an unknown field with 400 invalid_request, with the same message.
func TestRequestDecodingRejects(t *testing.T) {
	const maxBody = 64
	worker := newWorker(t, server.Config{MaxBodyBytes: maxBody})
	c, err := New(Config{Peers: []string{worker.url()}, MaxBodyBytes: maxBody})
	if err != nil {
		t.Fatal(err)
	}
	coord := httptest.NewServer(c.Handler())
	t.Cleanup(coord.Close)

	tooLarge := `{"workload": "` + strings.Repeat("x", maxBody) + `"}`
	cases := []struct {
		name, body, wantMsg string
		status              int
		code                client.ErrorCode
	}{
		{"too large", tooLarge, "body exceeds 64 bytes", http.StatusRequestEntityTooLarge, client.CodeTooLarge},
		{"unknown field", `{"bogus": true}`, `unknown field "bogus"`, http.StatusBadRequest, client.CodeInvalidRequest},
	}
	for _, ep := range []struct{ name, url string }{
		{"daemon analyze", worker.url() + "/v1/analyze"},
		{"daemon fit", worker.url() + "/v1/fit"},
		{"daemon predict", worker.url() + "/v1/predict"},
		{"daemon check", worker.url() + "/v1/check"},
		{"coordinator analyze", coord.URL + "/v1/analyze"},
		{"coordinator fit", coord.URL + "/v1/fit"},
		{"coordinator predict", coord.URL + "/v1/predict"},
	} {
		for _, tc := range cases {
			t.Run(ep.name+"/"+tc.name, func(t *testing.T) {
				resp, err := http.Post(ep.url, "application/json", strings.NewReader(tc.body))
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				var env client.ErrorEnvelope
				if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
					t.Fatalf("decode error envelope: %v", err)
				}
				if resp.StatusCode != tc.status || env.Err.Code != tc.code {
					t.Errorf("status/code = %d/%s, want %d/%s", resp.StatusCode, env.Err.Code, tc.status, tc.code)
				}
				if !strings.Contains(env.Err.Message, tc.wantMsg) {
					t.Errorf("message %q lacks %q", env.Err.Message, tc.wantMsg)
				}
			})
		}
	}
}
