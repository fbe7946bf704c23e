package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"laacad/internal/core"
	"laacad/internal/geom"
	"laacad/internal/region"
	"laacad/internal/scenario"
	"laacad/internal/snapshot"
)

// healVictims is how many nodes fail in one heal-10k op.
const healVictims = 100

// heal is the heal-10k workload: self-healing of a converged 10k-node
// Localized deployment (square1km-localized, Sequential order, two workers).
// Set-up converges it once and keeps the checkpoint. Op i resumes the
// checkpoint, takes one untimed warm Step (it moves no node and leaves the
// outcome cache warm), then, timed, removes the healVictims nodes nearest a
// point drawn from seed+i and runs to reconvergence.
type heal struct {
	seed int64
	reg  *region.Region
	ckpt *snapshot.State
}

func newHeal(seed int64, _ bool) (bench, error) {
	sc, err := scenario.Lookup("square1km-localized")
	if err != nil {
		return nil, err
	}
	sc.Config.Order = core.Sequential
	reg, err := sc.BuildRegion()
	if err != nil {
		return nil, err
	}
	r, err := scenario.NewRunner(sc, scenario.WithWorkers(2))
	if err != nil {
		return nil, err
	}
	res, err := r.Run(context.Background())
	if err == nil {
		err = checkResult(res, reg, sc.Config.K)
	}
	if err != nil {
		return nil, fmt.Errorf("converging the base deployment: %w", err)
	}
	ckpt, err := r.Snapshot()
	if err != nil {
		return nil, err
	}
	return &heal{seed: seed, reg: reg, ckpt: ckpt}, nil
}

func (h *heal) close() error { return nil }

// victims returns the indices of the healVictims nodes nearest op i's
// failure point, in descending order so that each removal leaves the
// indices still to be removed unchanged.
func (h *heal) victims(pos []geom.Point, i int) []int {
	rng := rand.New(rand.NewSource(h.seed + int64(i)))
	b := h.reg.BBox()
	p := geom.Pt(b.Min.X+rng.Float64()*b.Width(), b.Min.Y+rng.Float64()*b.Height())
	idx := make([]int, len(pos))
	for j := range idx {
		idx[j] = j
	}
	sort.Slice(idx, func(a, c int) bool {
		da, dc := pos[idx[a]].Dist2(p), pos[idx[c]].Dist2(p)
		if da != dc {
			return da < dc
		}
		return idx[a] < idx[c]
	})
	out := idx[:healVictims]
	sort.Sort(sort.Reverse(sort.IntSlice(out)))
	return out
}

func (h *heal) run(ops []int, tr *tracer) (*phase, error) {
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
		tb := time.Now()
		r, err := scenario.ResumeRunner(h.ckpt, opts...)
		if err != nil {
			return nil, err
		}
		if tr != nil {
			te := time.Now()
			tr.record("scenario.build", i, -1, tb, te)
			buildMS = append(buildMS, msSince(tb, te))
		}
		last = r
		eng, ok := scenario.Engine(r)
		if !ok {
			return nil, fmt.Errorf("heal: checkpoint did not resume on the round engine")
		}
		var failed []string
		if warm, _ := eng.Step(); warm.Moved != 0 {
			failed = append(failed, fmt.Sprintf("warm step moved %d nodes", warm.Moved))
		}
		victims := h.victims(eng.Positions(), i)
		round0, msgs0 := eng.Round(), eng.Network().MessageCount()
		runtime.GC()
		var s0 engineSnap
		if tr != nil {
			s0 = snapEngine(eng)
		}
		a0, c0 := allocBytes(), cpuMS()

		t0 := time.Now()
		root := tr.open("bench.op", i, -1, t0)
		for _, v := range victims {
			if err := eng.RemoveNode(v); err != nil {
				failed = append(failed, err.Error())
				break
			}
		}
		t1 := time.Now()
		var runCPU0 float64
		if tr != nil {
			tr.record("core.remove", i, root, t0, t1)
			obs.parent = tr.open("scenario.run", i, root, t1)
			runCPU0 = cpuMS()
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
			tally.removeMS = append(tally.removeMS, msSince(t0, t1))
			tally.runCPU += c1 - runCPU0
			tally.runWall += msSince(t1, t2)
			tally.add(s0, snapEngine(eng), eng.Round()-round0)
			if n == 0 {
				ph.captures = append(ph.captures, capture{res.Positions, eng.Config()})
			}
		}
		if err == nil {
			err = checkResult(res, h.reg, eng.Config().K)
		}
		if err != nil {
			failed = append(failed, err.Error())
		}
		if len(failed) > 0 {
			ph.failures = append(ph.failures, fmt.Sprintf("heal op %d: %v", i, failed))
		}
		if res != nil {
			ph.rStar = append(ph.rStar, res.MaxRadius())
		}
		ph.msgs = append(ph.msgs, float64(eng.Network().MessageCount()-msgs0))
	}
	ph.heapMB = heapLiveMB()
	runtime.KeepAlive(last)
	if tr != nil {
		tally.layers(ph.layers)
		ph.layers["scenario.build_ms"] = median(buildMS)
		ph.layers["core.remove_ms"] = median(tally.removeMS)
		ph.layers["core.heal_first_step_ms"] = median(tally.firstStepMS)
	}
	return ph, nil
}
