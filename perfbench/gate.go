package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// digests.json pins the output of every pooled operation: the collector
// fingerprint and the rendered report for CLI analyses, the report and
// result JSON for service replies, the diagnostics for checks and the
// predicted misses for predicts. Regenerate it with -pin after a change
// that is meant to change an answer.
//
//go:embed digests.json
var pinnedJSON []byte

func loadPins() (map[string]string, error) {
	pins := map[string]string{}
	if err := json.Unmarshal(pinnedJSON, &pins); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return pins, nil
}

// gate is the correctness check every operation passes through. An
// operation fails when it errors, is refused, times out, or returns a
// digest that differs from the pinned one.
type gate struct {
	pins map[string]string

	mu        sync.Mutex
	attempted int
	failed    int
	reasons   map[string]int
}

func newGate(pins map[string]string) *gate { return &gate{pins: pins, reasons: map[string]int{}} }

// check records one operation and reports whether it passed.
func (g *gate) check(id, digest string, err error) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.attempted++
	reason := ""
	switch want, ok := g.pins[id]; {
	case err != nil:
		reason = "error: " + err.Error()
	case !ok:
		reason = "no pinned digest for " + id
	case digest != want:
		reason = "digest mismatch for " + id
	}
	if reason == "" {
		return true
	}
	g.failed++
	g.reasons[reason]++
	return false
}

func (g *gate) counts() (attempted, failed int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.attempted, g.failed
}

// report lists the distinct failure reasons, most frequent first.
func (g *gate) report() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]string, 0, len(g.reasons))
	for r, n := range g.reasons {
		out = append(out, fmt.Sprintf("%dx %s", n, r))
	}
	sort.Strings(out)
	return out
}

func sha(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// analysisDigest covers what a CLI analysis hands the user: the
// collector's fingerprint, kept readable as the prefix, and the rendered
// report.
func analysisDigest(fp uint64, report []byte) string {
	return fmt.Sprintf("%016x/%s", fp, sha(report))
}

// replyDigest covers everything an analyze reply hands the user.
func replyDigest(report string, result []byte) string { return sha([]byte(report), result) }

// jsonDigest hashes the JSON form of v (diagnostics, predicted levels).
func jsonDigest(v any) (string, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	return sha(data), nil
}

// missesDigest hashes predicted misses per level; the CLI and the API
// carry them in different types, so both render through this.
func missesDigest(levels [][4]string) string {
	var b strings.Builder
	for _, l := range levels {
		b.WriteString(strings.Join(l[:], " "))
		b.WriteByte('\n')
	}
	return sha([]byte(b.String()))
}

func g64(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }
