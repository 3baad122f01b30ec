package main

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"reusetool/internal/cache"
	"reusetool/internal/core"
	"reusetool/internal/sampling"
)

func TestSameSeedSameSequence(t *testing.T) {
	if !reflect.DeepEqual(svcPlan(7), svcPlan(7)) {
		t.Error("svcPlan(7) differs between calls")
	}
	for _, w := range []string{"exact", "sampled"} {
		if !reflect.DeepEqual(cliPlan(w, 7, 20), cliPlan(w, 7, 20)) {
			t.Errorf("cliPlan(%s, 7) differs between calls", w)
		}
	}
	if reflect.DeepEqual(svcPlan(7), svcPlan(8)) {
		t.Error("seeds 7 and 8 give the same service sequence")
	}
}

// mix counts the operations of each kind and program.
func mix(ops []op) string {
	n := map[string]int{}
	for _, o := range ops {
		k := o.class()
		if o.Sample.MaxBlocks > 0 {
			k += "/capped"
		}
		n[k]++
	}
	keys := make([]string, 0, len(n))
	for k := range n {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := ""
	for _, k := range keys {
		s += fmt.Sprintf("%s=%d ", k, n[k])
	}
	return s
}

func TestSeedsKeepProgramMix(t *testing.T) {
	base := svcPlan(1)
	for seed := int64(2); seed < 6; seed++ {
		other := svcPlan(seed)
		if len(other) != len(base) {
			t.Fatalf("seed %d: %d operations, seed 1: %d", seed, len(other), len(base))
		}
		for b := 0; b+blockSize <= len(base); b += blockSize {
			if got, want := mix(other[b:b+blockSize]), mix(base[b:b+blockSize]); got != want {
				t.Fatalf("seed %d block %d: mix %s, seed 1: %s", seed, b/blockSize, got, want)
			}
		}
	}
	for _, w := range []string{"exact", "sampled"} {
		ref := cliPlan(w, 1, 10)
		for seed := int64(2); seed < 6; seed++ {
			for i, pass := range cliPlan(w, seed, 10) {
				if got, want := len(pass), len(ref[i]); got != want {
					t.Fatalf("%s seed %d pass %d: %d operations, want %d", w, seed, i, got, want)
				}
				got, want := mix(pass), mix(ref[i])
				if w == "sampled" {
					// The capped program changes with the seed; how many
					// are capped does not.
					got, want = countCapped(pass), countCapped(ref[i])
				}
				if got != want {
					t.Fatalf("%s seed %d pass %d: mix %s, seed 1: %s", w, seed, i, got, want)
				}
			}
		}
	}
}

func countCapped(ops []op) string {
	n := 0
	for _, o := range ops {
		if o.Kind == kindCold && o.Sample.MaxBlocks > 0 {
			n++
		}
	}
	return fmt.Sprint(n)
}

// Every operation a plan can draw has a pinned digest.
func TestPoolsArePinned(t *testing.T) {
	pins, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	check := func(surface string, ops []op) {
		for _, o := range ops {
			if _, ok := pins[o.id(surface)]; !ok {
				t.Errorf("no pinned digest for %s", o.id(surface))
			}
		}
	}
	check("svc", svcPlan(3))
	for _, w := range []string{"exact", "sampled"} {
		for _, pass := range cliPlan(w, 3, 10) {
			check("cli", pass)
		}
	}
}

// The adaptive cap must halve the rate on every capped binding: the
// capped run's fingerprint (the pin's prefix) differs from the uncapped
// run's, and a capped sweep3d run ends above the starting rate.
func TestCapTakesEffect(t *testing.T) {
	pins, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	fingerprint := func(id string) string { return strings.SplitN(pins[id], "/", 2)[0] }
	for _, prog := range cliPrograms {
		for _, params := range cliPools["sampled"][prog] {
			free := op{Kind: kindCold, Prog: prog, Params: params, Sample: sampling.Config{Rate: sampleRate}}
			capped := free
			capped.Sample.MaxBlocks = sampleCap
			if fingerprint(free.id("cli")) == fingerprint(capped.id("cli")) {
				t.Errorf("%s: capped and uncapped runs have the same fingerprint", capped.id("cli"))
			}
		}
	}
	o := op{Kind: kindCold, Prog: "sweep3d", Params: cliPools["sampled"]["sweep3d"][0],
		Sample: sampling.Config{Rate: sampleRate, MaxBlocks: sampleCap}}
	e := &cliEnv{hier: cache.ScaledItanium2(), saved: map[string][]byte{}}
	res, _, err := e.analyze(o, core.DynamicSource{}, true)
	if err != nil {
		t.Fatal(err)
	}
	if r := res.Collector.Engines[0].Sample().Rate; r <= sampleRate {
		t.Errorf("%s ended at rate %d, want above %d", o.id("cli"), r, sampleRate)
	}
}
