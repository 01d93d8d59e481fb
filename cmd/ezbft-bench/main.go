// Command ezbft-bench regenerates the paper's evaluation artifacts (Table
// I, Table II, and Figures 4–7) on the deterministic WAN simulator and
// prints them as text tables. The `batch` experiment sweeps leader-side
// request batching (batch sizes 1, 16, 32) across all four protocols —
// ezBFT's owner-side batching against the baselines' primary-side batching
// — so high-load comparisons stay apples-to-apples.
//
// The `scenarios` experiment runs the adversarial fault matrix (see
// internal/scenario): every Byzantine strategy and hostile network shape
// against all four protocols, with invariants checked after every cell.
// It is not part of `-e all`; it exits nonzero when any cell fails
// unexpectedly, and every failing cell prints a replay line (cell name +
// seed). The seed comes from -seed, or EZBFT_SCENARIO_SEED when the flag
// is not given.
//
// Usage:
//
//	ezbft-bench [-e table1|table2|fig4|fig5a|fig5b|fig6|fig7|ablation|batch|all|scenarios]
//	            [-duration 30s] [-warmup 2s] [-clients 3] [-seed 1]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"ezbft/internal/bench"
	"ezbft/internal/scenario"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ezbft-bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("ezbft-bench", flag.ContinueOnError)
	experiment := fs.String("e", "all", "experiment: table1, table2, fig4, fig5a, fig5b, fig6, fig7, ablation, batch, scenarios, or all (scenarios runs only when named)")
	duration := fs.Duration("duration", 30*time.Second, "simulated measurement window")
	warmup := fs.Duration("warmup", 2*time.Second, "simulated warmup (discarded)")
	clients := fs.Int("clients", 3, "closed-loop clients per region (latency experiments)")
	seed := fs.Int64("seed", 1, "simulation seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	p := bench.Params{
		Duration:         *duration,
		Warmup:           *warmup,
		ClientsPerRegion: *clients,
		Seed:             *seed,
	}

	if *experiment == "scenarios" {
		explicit := map[string]bool{}
		fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
		matrixSeed := *seed
		if !explicit["seed"] {
			matrixSeed = scenario.SeedFromEnv(*seed)
		}
		start := time.Now()
		rep, err := scenario.RunMatrix(scenario.DefaultMatrix(), scenario.Config{Seed: matrixSeed})
		if err != nil {
			return fmt.Errorf("scenarios: %w", err)
		}
		fmt.Println(rep.Render())
		fmt.Printf("(scenarios simulated in %.1fs wall time, seed %d)\n\n", time.Since(start).Seconds(), matrixSeed)
		if n := len(rep.Failures()); n > 0 {
			return fmt.Errorf("scenarios: %d cell(s) failed unexpectedly", n)
		}
		return nil
	}

	type renderer interface{ Render() string }
	experiments := []struct {
		name string
		run  func() (renderer, error)
	}{
		{"table1", func() (renderer, error) { return bench.Table1(p) }},
		{"fig4", func() (renderer, error) { return bench.Fig4(p) }},
		{"fig5a", func() (renderer, error) { return bench.Fig5a(p) }},
		{"fig5b", func() (renderer, error) { return bench.Fig5b(p) }},
		{"fig6", func() (renderer, error) { return bench.Fig6(p, nil) }},
		{"fig7", func() (renderer, error) { return bench.Fig7(p) }},
		{"table2", func() (renderer, error) { return bench.Table2(p) }},
		{"ablation", func() (renderer, error) { return bench.AblationSpeculation(p) }},
		{"batch", func() (renderer, error) { return bench.BatchSweep(p, nil) }},
	}

	ran := false
	for _, e := range experiments {
		if *experiment != "all" && *experiment != e.name {
			continue
		}
		ran = true
		start := time.Now()
		res, err := e.run()
		if err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		fmt.Println(res.Render())
		fmt.Printf("(%s simulated in %.1fs wall time)\n\n", e.name, time.Since(start).Seconds())
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", *experiment)
	}
	return nil
}
