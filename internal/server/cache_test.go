package server

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"reusetool/internal/cache"
	"reusetool/internal/interp"
	"reusetool/internal/persist"
	"reusetool/internal/reusedist"
	"reusetool/internal/workloads"
)

// collectEntry runs a small workload and packages it like the server
// would, so cache tests exercise real persist artifacts.
func collectEntry(t *testing.T, key string) *CacheEntry {
	t.Helper()
	prog := workloads.Fig2()
	info, err := prog.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	col := reusedist.NewCollector(cache.ScaledItanium2().Granularities(), 0)
	if _, err := interp.Run(info, nil, col); err != nil {
		t.Fatal(err)
	}
	var artifact bytes.Buffer
	if err := persist.Save(&artifact, persist.Snapshot(col, prog.Name, nil)); err != nil {
		t.Fatal(err)
	}
	return &CacheEntry{
		Key:         key,
		Program:     prog.Name,
		Fingerprint: col.Fingerprint(),
		Artifact:    artifact.Bytes(),
		Report:      []byte("report for " + key),
		JSON:        []byte(`{"k":"` + key + `"}`),
	}
}

func key(i int) string { return fmt.Sprintf("%064d", i) }

func TestCacheHitVerifiesFingerprint(t *testing.T) {
	m := NewMetrics()
	c, err := NewResultCache(CacheOptions{MaxEntries: 4}, m)
	if err != nil {
		t.Fatal(err)
	}
	e := collectEntry(t, key(1))
	c.Put(e)
	got, ok := c.Get(t.Context(), key(1))
	if !ok || !bytes.Equal(got.Report, e.Report) {
		t.Fatal("expected verified hit")
	}
	if m.CacheHits.Load() != 1 || m.CacheMisses.Load() != 0 {
		t.Fatalf("hit/miss counters wrong: %d/%d", m.CacheHits.Load(), m.CacheMisses.Load())
	}

	// Corrupt the recorded fingerprint: the entry must be rejected and
	// evicted instead of served.
	bad := collectEntry(t, key(2))
	bad.Fingerprint ^= 0xdead
	c.Put(bad)
	if _, ok := c.Get(t.Context(), key(2)); ok {
		t.Fatal("corrupted entry served")
	}
	if m.CacheBadVerify.Load() != 1 {
		t.Fatalf("verify-failure counter = %d, want 1", m.CacheBadVerify.Load())
	}
	if _, ok := c.Get(t.Context(), key(2)); ok {
		t.Fatal("corrupted entry resurrected")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	m := NewMetrics()
	c, err := NewResultCache(CacheOptions{MaxEntries: 2}, m)
	if err != nil {
		t.Fatal(err)
	}
	e1, e2, e3 := collectEntry(t, key(1)), collectEntry(t, key(2)), collectEntry(t, key(3))
	c.Put(e1)
	c.Put(e2)
	c.Get(t.Context(), key(1)) // promote 1; 2 becomes LRU
	c.Put(e3)                  // evicts 2
	if _, ok := c.Get(t.Context(), key(2)); ok {
		t.Fatal("LRU entry not evicted")
	}
	if _, ok := c.Get(t.Context(), key(1)); !ok {
		t.Fatal("promoted entry evicted")
	}
	if _, ok := c.Get(t.Context(), key(3)); !ok {
		t.Fatal("fresh entry evicted")
	}
	if m.CacheEvictions.Load() != 1 {
		t.Fatalf("evictions = %d, want 1", m.CacheEvictions.Load())
	}
}

func TestCacheDiskTierSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	m := NewMetrics()
	c, err := NewResultCache(CacheOptions{MaxEntries: 4, Dir: dir}, m)
	if err != nil {
		t.Fatal(err)
	}
	e := collectEntry(t, key(7))
	c.Put(e)
	// Disk writes are async; Close flushes them (the daemon does the
	// same during graceful drain).
	if err := c.Close(t.Context()); err != nil {
		t.Fatal(err)
	}

	// A fresh cache over the same directory — as after a daemon restart —
	// must satisfy the key from disk, with the fingerprint verified.
	m2 := NewMetrics()
	c2, err := NewResultCache(CacheOptions{MaxEntries: 4, Dir: dir}, m2)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c2.Get(t.Context(), key(7))
	if !ok {
		t.Fatal("disk tier miss after restart")
	}
	if !bytes.Equal(got.JSON, e.JSON) || got.Fingerprint != e.Fingerprint {
		t.Fatal("disk entry does not round-trip")
	}
	if m2.CacheDiskHits.Load() != 1 {
		t.Fatalf("disk-hit counter = %d, want 1", m2.CacheDiskHits.Load())
	}

	// A truncated disk artifact must be detected, not served.
	path := filepath.Join(dir, key(7)[:2], key(7)+".entry")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	c3, err := NewResultCache(CacheOptions{MaxEntries: 4, Dir: dir}, NewMetrics())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c3.Get(t.Context(), key(7)); ok {
		t.Fatal("truncated disk entry served")
	}
}

func TestCacheConcurrentAccess(t *testing.T) {
	c, err := NewResultCache(CacheOptions{MaxEntries: 8, Dir: t.TempDir()}, NewMetrics())
	if err != nil {
		t.Fatal(err)
	}
	// Flush the async disk writer before TempDir cleanup.
	t.Cleanup(func() { c.Close(context.Background()) })
	entries := make([]*CacheEntry, 4)
	for i := range entries {
		entries[i] = collectEntry(t, key(i))
	}
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 50; i++ {
				e := entries[(g+i)%len(entries)]
				if i%3 == 0 {
					c.Put(e)
				} else if got, ok := c.Get(t.Context(), e.Key); ok && got.Fingerprint != e.Fingerprint {
					t.Error("cross-key fingerprint mixup")
					return
				}
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
}
