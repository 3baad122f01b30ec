package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"reusetool/internal/sampling"
)

// Operation kinds. Every workload runs all five, on the surface it
// stands for: the CLI (exact, sampled) or the v1 API (service, cluster).
const (
	kindCold    = "cold"    // dynamic analysis nobody has run yet
	kindWarm    = "warm"    // the same analysis again: -load, or a cache hit
	kindStatic  = "static"  // static-mode analysis (staticreuse)
	kindCheck   = "check"   // the reuse checker (reusecheck)
	kindPredict = "predict" // a what-if query on the fitted model
)

// family is a program the pools draw bindings of: a built-in workload
// name, or a .loop file of the repository sent as source text.
type family struct {
	workload string
	file     string
}

var families = map[string]family{
	"sweep3d": {workload: "sweep3d"},
	"gtc":     {workload: "gtc"},
	"fig1b":   {workload: "fig1b"},
	"fig2":    {workload: "fig2"},
	"matmul":  {file: "programs/matmul.loop"},
	"rowwalk": {file: "programs/rowwalk.loop"},
}

// op is one operation of a workload's request sequence.
type op struct {
	Kind   string
	Prog   string
	Params map[string]int64
	Sample sampling.Config
}

// id names the operation's pinned output: the surface ("cli" or "svc"),
// the kind, the program and the binding. A daemon's warm hit returns the
// reply its cold run cached, so on that surface the kind is folded to
// "cold". The CLI's -load renders its own report, pinned apart.
func (o op) id(surface string) string {
	k := o.Kind
	if k == kindWarm && surface == "svc" {
		k = kindCold
	}
	return surface + "/" + k + "/" + o.Prog + "/" + o.binding()
}

// savedKey names the data a CLI cold analysis saves and its -load reads.
func (o op) savedKey() string { return o.Prog + "/" + o.binding() }

// binding renders the parameters and sampling config canonically.
func (o op) binding() string {
	names := make([]string, 0, len(o.Params))
	for n := range o.Params {
		names = append(names, n)
	}
	sort.Strings(names)
	parts := make([]string, 0, len(names)+2)
	for _, n := range names {
		parts = append(parts, fmt.Sprintf("%s=%d", n, o.Params[n]))
	}
	if o.Sample.Rate > 0 {
		parts = append(parts, fmt.Sprintf("R=%d", o.Sample.Rate))
	}
	if o.Sample.MaxBlocks > 0 {
		parts = append(parts, fmt.Sprintf("cap=%d", o.Sample.MaxBlocks))
	}
	return strings.Join(parts, ",")
}

func (o op) class() string { return o.Kind + "/" + o.Prog }

func p(kv ...any) map[string]int64 {
	m := map[string]int64{}
	for i := 0; i < len(kv); i += 2 {
		m[kv[i].(string)] = int64(kv[i+1].(int))
	}
	return m
}

// On a shared 2-CPU VM one operation's time swings by 20% from second
// to second. Each kind therefore runs programs of near-equal cost, and
// each mix puts its median and 90th percentile well inside one kind's
// samples, never on the boundary between two kinds, where a few
// samples would move them far.

// The CLI pools hold three bindings per program, costing within a few
// percent of each other and of the other programs' (about 0.5 s exact,
// 0.7 s sampled on a 2-CPU Xeon): a seed moves which one a pass runs,
// not how much work the pass is.
var cliPools = map[string]map[string][]map[string]int64{
	"exact": {
		"sweep3d": {p("it", 10, "jt", 10, "kt", 10), p("it", 11, "jt", 10, "kt", 9), p("it", 9, "jt", 11, "kt", 10)},
		"gtc":     {p("grid", 1536, "micell", 15), p("grid", 1472, "micell", 16), p("grid", 1664, "micell", 14)},
		"matmul":  {p("N", 110), p("N", 108), p("N", 112)},
	},
	"sampled": {
		"sweep3d": {p("it", 17, "jt", 17, "kt", 17), p("it", 18, "jt", 17, "kt", 16), p("it", 16, "jt", 18, "kt", 17)},
		"gtc":     {p("grid", 6144, "micell", 15), p("grid", 5888, "micell", 16), p("grid", 6656, "micell", 14)},
		"matmul":  {p("N", 165), p("N", 163), p("N", 167)},
	},
}

var cliPrograms = []string{"sweep3d", "gtc", "matmul"}

// cliAux is the program the CLI's -load, -static and -check modes run
// on, each auxRepeats times per pass (-load once more): sweep3d, the
// paper's main code. A pass is then 3 predicts, 3 checks, 4 loads, 3
// static analyses and 3 dynamic ones, roughly in rising cost. Like the
// API mix, these counts are an assumption, not taken from any record of
// use: they put the median among the loads and the 90th percentile
// among the dynamic analyses, so both are stable.
const (
	cliAux     = "sweep3d"
	auxRepeats = 3
)

const (
	sampleRate = 64
	// sampleCap is the adaptive mode's per-engine block cap; one binding
	// per sampled pass runs under it. At R=64 the pooled bindings admit
	// about 60 (sweep3d), 85 (matmul) and 1800 (gtc) blocks at the finest
	// granularity, so every capped run halves its rate and evicts blocks
	// at least once (TestCapTakesEffect).
	sampleCap = 32
)

// predictPool holds the what-if bindings of the fig2 model fitted at
// set-up on trainParams.
var (
	predictPool = []int64{256, 384, 512, 768, 1024, 1536, 2048, 3072}
	trainParams = []map[string]int64{p("N", 64), p("N", 96), p("N", 128)}
)

func predictOp(n int64) op {
	return op{Kind: kindPredict, Prog: "fig2", Params: map[string]int64{"N": n}}
}

// cliPlan is the exact and sampled sequence: passes that run one
// -workload/-program analysis (cold) of each program in seeded order,
// then -load of the sweep3d data that pass saved (warm), -static,
// -check and -predict, in seeded order.
func cliPlan(workload string, seed int64, passes int) [][]op {
	rng := rand.New(rand.NewSource(seed))
	pool := cliPools[workload]
	out := make([][]op, passes)
	for i := range out {
		order := append([]string(nil), cliPrograms...)
		rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		capped := rng.Intn(len(order))
		var pass, aux []op
		for j, prog := range order {
			params := pool[prog][rng.Intn(len(pool[prog]))]
			var s sampling.Config
			if workload == "sampled" {
				s.Rate = sampleRate
				if j == capped {
					s.MaxBlocks = sampleCap
				}
			}
			pass = append(pass, op{Kind: kindCold, Prog: prog, Params: params, Sample: s})
			if prog != cliAux {
				continue
			}
			aux = append(aux, op{Kind: kindWarm, Prog: prog, Params: params, Sample: s})
			for k := 0; k < auxRepeats; k++ {
				aux = append(aux,
					op{Kind: kindWarm, Prog: prog, Params: params, Sample: s},
					op{Kind: kindStatic, Prog: prog, Params: params},
					op{Kind: kindCheck, Prog: prog, Params: params},
					predictOp(predictPool[rng.Intn(len(predictPool))]))
			}
		}
		rng.Shuffle(len(aux), func(a, b int) { aux[a], aux[b] = aux[b], aux[a] })
		out[i] = append(pass, aux...)
	}
	return out
}

// cliPoolOps lists every distinct operation cliPlan can draw, for
// pinning, each warm one after the cold analysis whose data it loads.
func cliPoolOps(workload string) []op {
	var out []op
	for _, prog := range cliPrograms {
		for _, params := range cliPools[workload][prog] {
			variants := []sampling.Config{{}}
			if workload == "sampled" {
				variants = []sampling.Config{{Rate: sampleRate}, {Rate: sampleRate, MaxBlocks: sampleCap}}
			}
			for _, s := range variants {
				out = append(out, op{Kind: kindCold, Prog: prog, Params: params, Sample: s})
				if prog == cliAux {
					out = append(out, op{Kind: kindWarm, Prog: prog, Params: params, Sample: s})
				}
			}
			if prog == cliAux {
				out = append(out, op{Kind: kindStatic, Prog: prog, Params: params}, op{Kind: kindCheck, Prog: prog, Params: params})
			}
		}
	}
	for _, n := range predictPool {
		out = append(out, predictOp(n))
	}
	return out
}

// The API mix. Cold bindings, and static ones, are used at most once
// per run, since a repeat would be a cache hit. A run whose plan runs
// out before its time is up fails, so the plan holds several times what
// a 20 s run on a 2-CPU host uses (svcBlocks). The cold programs take
// about 12 ms. On the cluster a job is seen done at the coordinator's
// next 50 ms poll of its worker, so a job that takes near 50 ms lands on
// the first poll or the second by chance, and a slower host moves its
// median by a whole poll; at 12 ms a job stays below the first poll even
// behind another on a single-worker node on a host slowed by half. The
// programs vary two parameters with a near-constant product, so every
// binding costs the same. Warm hits resubmit rowwalk and fig1b only:
// their hits cost the same, while a fig2 hit takes about twice as long
// (its report is larger), and a mix of the two would put the median on
// the step between them.
var (
	svcColdMix = []string{"rowwalk", "rowwalk", "rowwalk", "fig1b", "fig1b", "fig1b", "fig2", "fig2"}
	svcCold    = []string{"rowwalk", "fig1b", "fig2"}
	svcWarm    = []string{"rowwalk", "fig1b"}
	svcCheck   = "sweep3d"
	svcStatic  = "gtc"
)

// blockSize is the length of a block of the API mix: svcPredicts
// predicts, 12 warm resubmits (6 per program), a check, 8 cold analyses
// and a static analysis, in seeded order. No record of how the tool is
// used backs these ratios: they are an assumption, chosen so that the
// aggregate percentiles are stable. The predicts are the fastest 27% of
// operations and the warm hits the next 40%, so the median falls near
// the warm hits' own median, away from their slow tail; the check and the static analysis are the
// slowest 7%, so the 90th percentile falls among the cold analyses. The
// per-kind medians do not depend on the ratios.
const (
	svcPredicts = 8
	blockSize   = 22 + svcPredicts
)

// svcBlocks bounds the blocks of one run: 7500 operations, 375 a second
// over 20 s, over 3x the fastest rate measured on a 2-CPU Xeon.
const svcBlocks = 250

// sizeBinding spreads n bindings over two parameters with a product
// near area, starting the first parameter at lo.
func sizeBinding(a, b string, lo, area, n int) []map[string]int64 {
	out := make([]map[string]int64, n)
	for i := range out {
		x := lo + i
		out[i] = p(a, x, b, (area+x/2)/x)
	}
	return out
}

// svcArea gives the first N and the N*M product of a program's API
// bindings: about 12 ms of analysis each on a 2-CPU Xeon.
func svcArea(prog string) (lo, area int) {
	if prog == "fig2" {
		return 200, 25000
	}
	return 100, 10240
}

// svcColdPool returns a program's cold bindings; the warm population
// uses the bindings just below them.
func svcColdPool(prog string) []map[string]int64 {
	n := svcBlocks * 3
	lo, area := svcArea(prog)
	return sizeBinding("N", "M", lo, area, n)
}

func svcStaticPool() []map[string]int64 {
	out := make([]map[string]int64, svcBlocks)
	for i := range out {
		out[i] = p("grid", 2048+16*i)
	}
	return out
}

func svcCheckPool() []map[string]int64 {
	return []map[string]int64{p("it", 16, "jt", 16, "kt", 16), p("it", 17, "jt", 16, "kt", 15), p("it", 15, "jt", 17, "kt", 16)}
}

// warmKeys is how many keys of each warm program set-up analyzes.
const warmKeys = 18

// warmPool is the population analyzed at set-up that warm operations
// resubmit. It is larger than a cluster worker's memory tier
// (clusterCacheEntries), so the cluster also serves warm hits from the
// shared remote tier.
func warmPool() []op {
	var out []op
	for _, prog := range svcWarm {
		lo, area := svcArea(prog)
		for _, params := range sizeBinding("N", "M", lo-warmKeys, area, warmKeys) {
			out = append(out, op{Kind: kindWarm, Prog: prog, Params: params})
		}
	}
	return out
}

// svcPlan is the service and cluster sequence: svcBlocks blocks with
// seeded bindings and order.
func svcPlan(seed int64) []op {
	rng := rand.New(rand.NewSource(seed))
	cold := map[string][]int{}
	for _, prog := range svcCold {
		cold[prog] = rng.Perm(len(svcColdPool(prog)))
	}
	used := map[string]int{}
	static := rng.Perm(len(svcStaticPool()))
	warm := map[string][]op{}
	for _, o := range warmPool() {
		warm[o.Prog] = append(warm[o.Prog], o)
	}
	var out []op
	for b := 0; b < svcBlocks; b++ {
		block := make([]op, 0, blockSize)
		for _, prog := range svcColdMix {
			block = append(block, op{Kind: kindCold, Prog: prog, Params: svcColdPool(prog)[cold[prog][used[prog]]]})
			used[prog]++
		}
		for _, prog := range svcWarm {
			for k := 0; k < 12/len(svcWarm); k++ {
				block = append(block, warm[prog][rng.Intn(len(warm[prog]))])
			}
		}
		block = append(block,
			op{Kind: kindStatic, Prog: svcStatic, Params: svcStaticPool()[static[b]]},
			op{Kind: kindCheck, Prog: svcCheck, Params: svcCheckPool()[rng.Intn(len(svcCheckPool()))]})
		for k := 0; k < svcPredicts; k++ {
			block = append(block, predictOp(predictPool[rng.Intn(len(predictPool))]))
		}
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		out = append(out, block...)
	}
	return out
}

// svcPoolOps lists every distinct operation svcPlan can draw, plus the
// warm population, for pinning.
func svcPoolOps() []op {
	var out []op
	for _, prog := range svcCold {
		for _, params := range svcColdPool(prog) {
			out = append(out, op{Kind: kindCold, Prog: prog, Params: params})
		}
	}
	for _, params := range svcStaticPool() {
		out = append(out, op{Kind: kindStatic, Prog: svcStatic, Params: params})
	}
	for _, params := range svcCheckPool() {
		out = append(out, op{Kind: kindCheck, Prog: svcCheck, Params: params})
	}
	out = append(out, warmPool()...)
	for _, prog := range probeWarmPrograms {
		out = append(out, op{Kind: kindCold, Prog: prog})
	}
	for _, n := range predictPool {
		out = append(out, predictOp(n))
	}
	return out
}
