// Command perfbench is the repository's benchmark. One invocation runs
// one workload for a fixed time and prints its metrics as the last line
// of standard output:
//
//	bash perfbench/run.sh --workload exact --seed 1 --seconds 20 --trace 0
//
// Untraced runs (--trace 0) print the end-to-end metrics; traced runs
// (--trace 1) run the same load, then replay one operation of each class
// through the layers' public functions and print the per-layer metrics.
// Every operation's output is checked against digests.json. LAYERS.md
// says why each workload exists and which layer metric should move
// which end-to-end metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"
)

var workloadNames = []string{"exact", "sampled", "service", "cluster"}

// setupRounds is how many times a run sets up: set-up time is reported
// as the median, and the last set-up is the one measured.
const setupRounds = 3

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "workload to run: exact, sampled, service or cluster")
	seed := flag.Int64("seed", 1, "seed of the workload's operation sequence")
	seconds := flag.Int("seconds", 20, "how long the load runs")
	traced := flag.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	pin := flag.Bool("pin", false, "compute the digest of every pooled operation and write perfbench/digests.json")
	flag.Parse()

	if err := readSources(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if *pin {
		if err := writePins(filepath.Join("perfbench", "digests.json")); err != nil {
			fmt.Fprintln(os.Stderr, "pin:", err)
			return 1
		}
		return 0
	}
	if !slices.Contains(workloadNames, *workload) || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload %v --seed N --seconds S --trace 0|1\n", workloadNames)
		return 2
	}
	pins, err := loadPins()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	h := hostInfo()
	h.Workload, h.Seed, h.Seconds, h.Trace = *workload, *seed, *seconds, *traced == 1
	surface, clients := "cli", 1
	if *workload == "service" || *workload == "cluster" {
		surface, clients = "svc", 2
	}
	h.LoadClients = clients
	hostLine, _ := json.Marshal(h)
	fmt.Printf("host %s\n", hostLine)

	out, err := runWorkload(*workload, surface, clients, *seed, time.Duration(*seconds)*time.Second, *traced == 1, pins)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// env is a set-up workload: an executor plus its teardown.
type env struct {
	ex    executor
	cli   *cliEnv
	svc   *svcEnv
	close func()
}

func setup(workload string) (*env, error) {
	switch workload {
	case "exact", "sampled":
		c, err := setupCLI(workload)
		if err != nil {
			return nil, err
		}
		return &env{ex: c, cli: c, close: func() {}}, nil
	}
	s, err := setupService(workload == "cluster")
	if err != nil {
		return nil, err
	}
	return &env{ex: s, svc: s, close: s.close}, nil
}

func runWorkload(workload, surface string, clients int, seed int64, d time.Duration, traced bool, pins map[string]string) (*output, error) {
	rounds := setupRounds
	if traced {
		rounds = 1
	}
	var setups []float64
	var e *env
	for i := 0; i < rounds; i++ {
		if e != nil {
			e.close()
		}
		t0 := time.Now()
		var err error
		if e, err = setup(workload); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer e.close()

	var batches [][]op
	if surface == "cli" {
		batches = cliPlan(workload, seed, 1000)
	} else {
		for _, o := range svcPlan(seed) {
			batches = append(batches, []op{o})
		}
	}
	var tr *tracer
	if traced {
		tr = &tracer{}
	}
	g := newGate(pins)
	var before cacheCounts
	var rerouted0 uint64
	if e.svc != nil {
		before = e.svc.cacheCounts()
		if e.svc.coord != nil {
			rerouted0 = e.svc.coord.Metrics().JobsRerouted.Load()
		}
	}
	l := runLoad(e.ex, g, surface, batches, clients, d, tr)
	if l.ranOut {
		return nil, fmt.Errorf("the plan ran out of operations after %.1f s of a %v run; enlarge the pools (svcBlocks)", l.wall.Seconds(), d)
	}
	for _, r := range g.report() {
		fmt.Fprintln(os.Stderr, "failed:", r)
	}
	attempted, failed := g.counts()
	out := &output{Correct: failed == 0, Attempted: attempted, Failed: failed}
	fmt.Printf("load: %d operations in %.2f s, %d failed, setups %v s\n", attempted, l.wall.Seconds(), failed, fmtList(setups))
	if !traced {
		out.Metrics = endToEnd(l, percentile(setups, 50), surface)
		return out, nil
	}

	m, ok, err := tracedPass(workload, surface, seed, e, l, g, tr, pins, before, rerouted0)
	if err != nil {
		return nil, err
	}
	out.Metrics, out.Correct = m, out.Correct && ok
	return out, nil
}

// writePins runs every pooled operation once on both surfaces and
// writes the digests.
func writePins(path string) error {
	pins := map[string]string{}
	record := func(surface string, o op, r result) error {
		if r.err != nil {
			return fmt.Errorf("%s: %w", o.id(surface), r.err)
		}
		pins[o.id(surface)] = r.digest
		return nil
	}
	for _, w := range []string{"exact", "sampled"} {
		c, err := setupCLI(w)
		if err != nil {
			return err
		}
		for _, o := range cliPoolOps(w) {
			if err := record("cli", o, c.run(context.Background(), o)); err != nil {
				return err
			}
		}
	}
	s, err := setupService(false)
	if err != nil {
		return err
	}
	defer s.close()
	// Set-up analyzed the warm population, so its operations run here
	// as warm hits and pin the digest their cold runs produced.
	for _, o := range svcPoolOps() {
		if err := record("svc", o, s.run(context.Background(), o)); err != nil {
			return err
		}
	}
	data, err := json.MarshalIndent(pins, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
