package main

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"reusetool/internal/server"
	"reusetool/pkg/client"
)

// corrupting flips one byte of the report in every finished job
// document the daemon serves.
func corrupting(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		if i := bytes.Index(body, []byte(`"report": "`)); i >= 0 {
			j := i + len(`"report": "`)
			if body[j] == 'w' {
				body[j] = 'W'
			} else {
				body[j] = 'w'
			}
		}
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(rec.Code)
		w.Write(body)
	})
}

func TestGateCountsCorruptedReply(t *testing.T) {
	pins, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	o := op{Kind: kindCold, Prog: "fig1b", Params: svcColdPool("fig1b")[0]}
	for _, corrupt := range []bool{false, true} {
		s, err := server.New(server.Config{})
		if err != nil {
			t.Fatal(err)
		}
		var h http.Handler = s.Handler()
		if corrupt {
			h = corrupting(h)
		}
		ts := httptest.NewServer(h)
		e := &svcEnv{cli: client.New(ts.URL, client.WithRetry(client.Retry{Attempts: 1}))}
		r := e.run(context.Background(), o)
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		s.Drain(ctx)
		cancel()

		g := newGate(pins)
		g.check(o.id("svc"), r.digest, r.err)
		attempted, failed := g.counts()
		want := 0
		if corrupt {
			want = 1
		}
		if attempted != 1 || failed != want {
			t.Errorf("corrupt=%v: attempted %d failed %d, want 1 and %d (err %v)", corrupt, attempted, failed, want, r.err)
		}
		if corrupt && !strings.Contains(strings.Join(g.report(), ""), "digest mismatch") {
			t.Errorf("corrupted reply failed for another reason: %v", g.report())
		}
	}
}

func TestGateCountsErrorsAndUnpinned(t *testing.T) {
	g := newGate(map[string]string{"a": "x"})
	g.check("a", "x", nil)
	g.check("a", "x", context.DeadlineExceeded)
	g.check("b", "x", nil)
	g.check("a", "y", nil)
	if attempted, failed := g.counts(); attempted != 4 || failed != 3 {
		t.Errorf("attempted %d failed %d, want 4 and 3", attempted, failed)
	}
}
