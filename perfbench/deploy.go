package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"laacad/internal/core"
	"laacad/internal/region"
	"laacad/internal/scenario"
)

// deploy is the deploy-1k workload: cold deployments of 1000 nodes placed
// uniformly over the 1 km² square, k=2, Centralized and Synchronous at two
// workers. Op i deploys the placement seeded seed+i from NewRunner to a
// converged Result.
type deploy struct {
	seed int64
	reg  *region.Region
}

func newDeploy(seed int64, _ bool) (bench, error) {
	reg, err := scenario.LookupRegion("square")
	if err != nil {
		return nil, err
	}
	return &deploy{seed: seed, reg: reg}, nil
}

func (d *deploy) close() error { return nil }

func deployScenario(seed int64, i int) scenario.Scenario {
	cfg := core.DefaultConfig(2)
	cfg.Seed = seed + int64(i)
	return scenario.Scenario{Region: "square", Placement: "uniform", N: 1000, Config: cfg}
}

func (d *deploy) run(ops []int, tr *tracer) (*phase, error) {
	ph := &phase{layers: map[string]float64{}}
	var tally engineTally
	var buildMS []float64
	var last scenario.Runner // the last op's runner, live at the heap measurement
	for n, i := range ops {
		opts := []scenario.Option{scenario.WithWorkers(2)}
		var obs *roundSpans
		if tr != nil {
			obs = &roundSpans{tr: tr, tally: &tally, op: i}
			if n == 0 {
				obs.onRound = func(e *core.Engine, round int) {
					if round == 1 {
						ph.captures = append(ph.captures, capture{e.Positions(), e.Config()})
					}
				}
			}
			opts = append(opts, scenario.WithObserver(obs.observe))
		}
		runtime.GC()
		a0, c0 := allocBytes(), cpuMS()

		t0 := time.Now()
		root := tr.open("bench.op", i, -1, t0)
		r, err := scenario.NewRunner(deployScenario(d.seed, i), opts...)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		last = r
		var eng *core.Engine
		var s0 engineSnap
		var runCPU0 float64
		if tr != nil {
			tr.record("scenario.build", i, root, t0, t1)
			obs.parent = tr.open("scenario.run", i, root, t1)
			eng, _ = scenario.Engine(r)
			s0, runCPU0 = snapEngine(eng), cpuMS()
			obs.mark = time.Now()
		}
		res, err := r.Run(context.Background())
		t2 := time.Now()

		c1, a1 := cpuMS(), allocBytes()
		ph.opMS = append(ph.opMS, msSince(t0, t2))
		ph.wallS += t2.Sub(t0).Seconds()
		ph.cpuMS += c1 - c0
		ph.allocB += a1 - a0
		if tr != nil {
			obs.finish(t2)
			tr.close(obs.parent, t2)
			tr.close(root, t2)
			buildMS = append(buildMS, msSince(t0, t1))
			tally.runCPU += c1 - runCPU0
			tally.runWall += msSince(t1, t2)
			tally.add(s0, snapEngine(eng), res.Rounds)
			if n == 0 {
				ph.captures = append(ph.captures, capture{res.Positions, eng.Config()})
			}
		}
		if err == nil {
			err = checkResult(res, d.reg, 2)
		}
		if err != nil {
			ph.failures = append(ph.failures, fmt.Sprintf("deploy op %d: %v", i, err))
		}
		if res != nil {
			ph.rStar = append(ph.rStar, res.MaxRadius())
			ph.msgs = append(ph.msgs, float64(res.Messages))
		}
	}
	ph.heapMB = heapLiveMB()
	runtime.KeepAlive(last)
	if tr != nil {
		tally.layers(ph.layers)
		ph.layers["scenario.build_ms"] = median(buildMS)
	}
	return ph, nil
}

func msSince(a, b time.Time) float64 { return float64(b.Sub(a).Nanoseconds()) / 1e6 }
