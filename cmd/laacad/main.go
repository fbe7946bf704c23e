// Command laacad runs a single LAACAD deployment and reports the outcome:
// final max/min sensing range, convergence rounds, coverage verification and
// an ASCII rendering of the final node layout.
//
// Runs resolve from the scenario registry (-scenario, -list) or are wired
// ad hoc from flags; either way they execute through the unified
// Scenario/Runner API, so SIGINT/SIGTERM stops a run cleanly, writes a
// resume checkpoint, and -resume continues it bit-identically.
//
// Usage:
//
//	laacad -scenario corner                        # a registered scenario
//	laacad -scenario corner -n 200 -k 3            # ... with overrides
//	laacad -n 100 -k 2 -region square -start corner -alpha 0.5
//	laacad -n 120 -k 4 -region obstacles2 -mode localized -gamma 0.2
//	laacad -resume laacad-resume.json              # continue an interrupted run
//	laacad -list                                   # show scenarios/regions/placements
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"laacad"

	"laacad/internal/asciiplot"
	metricshttp "laacad/internal/metrics"
	"laacad/internal/snapshot"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "laacad:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("laacad", flag.ContinueOnError)
	var (
		scName   = fs.String("scenario", "", "run a registered scenario (see -list); other flags override its fields")
		list     = fs.Bool("list", false, "list registered scenarios, regions and placements, then exit")
		resume   = fs.String("resume", "", "resume from a checkpoint file instead of starting a scenario")
		ckpt     = fs.String("checkpoint", "laacad-resume.json", "where to write the resume checkpoint on SIGINT/SIGTERM")
		every    = fs.Int("checkpoint-every", 0, "also write the checkpoint every N rounds (0 = only on interrupt)")
		n        = fs.Int("n", 100, "number of sensor nodes")
		k        = fs.Int("k", 2, "coverage order k")
		alpha    = fs.Float64("alpha", 0.5, "motion step size in (0,1]")
		eps      = fs.Float64("eps", 1e-3, "stopping tolerance")
		rounds   = fs.Int("rounds", 300, "maximum rounds")
		seed     = fs.Int64("seed", 1, "random seed")
		mode     = fs.String("mode", "centralized", "engine mode: centralized | localized")
		gamma    = fs.Float64("gamma", 0.2, "transmission range (localized mode)")
		regName  = fs.String("region", "square", "region: one of the registered regions (see -list)")
		start    = fs.String("start", "uniform", "initial placement: one of the registered placements (see -list)")
		workers  = fs.Int("workers", 0, "engine worker goroutines per round (0 = serial, -1 = all CPUs); trajectories are identical for any value")
		metrics  = fs.String("metrics", "", "serve live run metrics as JSON over HTTP on this address (e.g. localhost:6060); empty = off")
		gridRes  = fs.Int("grid", 80, "coverage verification grid resolution")
		showPlot = fs.Bool("plot", true, "render final layout as ASCII")
		savePath = fs.String("save", "", "write the final deployment as a JSON snapshot")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		printRegistry(os.Stdout)
		return nil
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })

	// SIGINT/SIGTERM cancel the run; the Runner then returns the partial
	// result and we write a resume checkpoint.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var opts []laacad.RunOption
	if *metrics != "" {
		reg := &laacad.MetricsRegistry{}
		addr, shutdown, err := metricshttp.ListenAndServe(*metrics, metricshttp.Mux(reg))
		if err != nil {
			return err
		}
		defer shutdown()
		fmt.Printf("serving metrics at http://%s/metrics\n", addr)
		opts = append(opts, laacad.WithMetrics(reg))
	}
	if *every > 0 {
		opts = append(opts, laacad.WithSnapshotEvery(*every, func(st *laacad.Checkpoint) error {
			return st.WriteFile(*ckpt)
		}))
	}

	var (
		r         laacad.Runner
		kOrder    int
		seedUsed  int64
		regByName string
	)
	if *resume != "" {
		st, err := laacad.ReadCheckpoint(*resume)
		if err != nil {
			return err
		}
		// The checkpoint's own worker setting applies unless -workers was
		// given explicitly (it is a speed knob; results are identical).
		if set["workers"] {
			opts = append(opts, laacad.WithWorkers(*workers))
		}
		r, err = laacad.ResumeRunner(st, opts...)
		if err != nil {
			return err
		}
		kOrder, seedUsed, regByName = st.Config.K, st.Config.Seed, st.Region
		fmt.Printf("resuming %s checkpoint (round %d) over region %q\n", st.Kind, st.Round, st.Region)
	} else {
		opts = append(opts, laacad.WithWorkers(*workers))
		sc, err := buildScenario(*scName, set, flagValues{
			n: *n, k: *k, alpha: *alpha, eps: *eps, rounds: *rounds,
			seed: *seed, mode: *mode, gamma: *gamma, region: *regName, start: *start,
		})
		if err != nil {
			return err
		}
		r, err = laacad.NewRunner(sc, opts...)
		if err != nil {
			return err
		}
		kOrder, seedUsed, regByName = sc.Config.K, sc.Seed(), sc.Region
	}

	res, err := r.Run(ctx)
	if errors.Is(err, context.Canceled) {
		st, serr := r.Snapshot()
		if serr != nil {
			return fmt.Errorf("interrupted, and checkpointing failed: %w", serr)
		}
		if serr := st.WriteFile(*ckpt); serr != nil {
			return fmt.Errorf("interrupted, and writing %s failed: %w", *ckpt, serr)
		}
		return fmt.Errorf("interrupted after %d rounds; resume with: laacad -resume %s", res.Rounds, *ckpt)
	}
	if err != nil {
		return err
	}

	reg, err := laacad.LookupRegionByName(regByName)
	if err != nil {
		return err
	}
	rep := laacad.VerifyCoverage(res.Positions, res.Radii, reg, *gridRes)

	fmt.Printf("LAACAD deployment: n=%d k=%d region=%s\n", len(res.Positions), kOrder, regByName)
	fmt.Printf("  rounds:     %d (converged=%v)\n", res.Rounds, res.Converged)
	fmt.Printf("  R* (max r): %.6g\n", res.MaxRadius())
	fmt.Printf("  min r:      %.6g\n", res.MinRadius())
	fmt.Printf("  max load:   %.6g   total load: %.6g   (E=πr²)\n",
		laacad.MaxLoad(res.Radii, laacad.DiskAreaEnergy{}),
		laacad.TotalLoad(res.Radii, laacad.DiskAreaEnergy{}))
	fmt.Printf("  coverage:   min depth %d over %d samples → %d-covered=%v\n",
		rep.MinDepth, rep.Samples, kOrder, rep.KCovered(kOrder))
	if res.Messages > 0 {
		fmt.Printf("  messages:   %d\n", res.Messages)
	}
	if *showPlot {
		fmt.Println("\nFinal layout:")
		fmt.Print(asciiplot.Scatter(reg.BBox(), 64, 24, asciiplot.Layer{Points: res.Positions, Mark: 'o'}))
	}
	if *savePath != "" {
		snap, err := snapshot.New(kOrder, seedUsed, res.Rounds, res.Converged, res.Positions, res.Radii)
		if err != nil {
			return err
		}
		if err := snap.WriteFile(*savePath); err != nil {
			return err
		}
		fmt.Printf("snapshot written to %s\n", *savePath)
	}
	return nil
}

// flagValues carries the deployment flags into scenario assembly.
type flagValues struct {
	n, k, rounds        int
	alpha, eps, gamma   float64
	seed                int64
	mode, region, start string
}

// buildScenario resolves the base scenario (registered name, or an ad-hoc
// default) and applies explicitly-set flags on top.
func buildScenario(name string, set map[string]bool, v flagValues) (laacad.Scenario, error) {
	var sc laacad.Scenario
	if name != "" {
		var err error
		sc, err = laacad.LookupScenario(name)
		if err != nil {
			return sc, err
		}
		if sc.Async {
			return sc, fmt.Errorf("scenario %q is event-driven; cmd/laacad drives round-based runs only", name)
		}
	} else {
		sc = laacad.Scenario{
			Region:    v.region,
			Placement: v.start,
			N:         v.n,
			Config:    laacad.DefaultConfig(v.k),
		}
		sc.Config.Alpha = v.alpha
		sc.Config.Epsilon = v.eps
		sc.Config.MaxRounds = v.rounds
		sc.Config.Seed = v.seed
		sc.Config.Gamma = v.gamma
	}
	// Explicit flags override the registered scenario's fields.
	if set["region"] {
		sc.Region = v.region
	}
	if set["start"] {
		sc.Placement = v.start
	}
	if set["n"] {
		sc.N = v.n
	}
	if set["k"] {
		sc.Config.K = v.k
	}
	if set["alpha"] {
		sc.Config.Alpha = v.alpha
	}
	if set["eps"] {
		sc.Config.Epsilon = v.eps
	}
	if set["rounds"] {
		sc.Config.MaxRounds = v.rounds
	}
	if set["seed"] {
		sc = sc.WithSeed(v.seed)
	}
	if set["gamma"] {
		sc.Config.Gamma = v.gamma
	}
	if name == "" || set["mode"] {
		switch v.mode {
		case "centralized":
			sc.Config.Mode = laacad.Centralized
		case "localized":
			sc.Config.Mode = laacad.Localized
		default:
			return sc, fmt.Errorf("unknown mode %q", v.mode)
		}
	}
	return sc, nil
}

// printRegistry lists the registered scenarios, regions and placements.
func printRegistry(w *os.File) {
	fmt.Fprintln(w, "Scenarios:")
	for _, sc := range laacad.Scenarios() {
		kind := "rounds"
		if sc.Async {
			kind = "async"
		}
		fmt.Fprintf(w, "  %-11s %-7s %s\n", sc.Name, kind, sc.Description)
	}
	fmt.Fprintf(w, "Regions:    %v\n", laacad.RegionNames())
	fmt.Fprintf(w, "Placements: %v\n", laacad.PlacementNames())
}
