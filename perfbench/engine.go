package main

import (
	"fmt"
	"math"
	"time"

	"laacad/internal/core"
	"laacad/internal/coverage"
	"laacad/internal/region"
	"laacad/internal/scenario"
)

// coverageRes is the grid resolution of the k-coverage check on every op.
const coverageRes = 200

// engineSnap is the engine's cumulative counters at one instant.
type engineSnap struct {
	c               core.CacheCounters
	msgs            int64
	moves, rebuilds uint64
}

func snapEngine(e *core.Engine) engineSnap {
	net := e.Network()
	return engineSnap{c: e.CacheCounters(), msgs: net.MessageCount(), moves: net.IncrementalMoves(), rebuilds: net.Rebuilds()}
}

// engineTally sums the core and wsn layer counters over the ops of a traced
// phase, and keeps the spans' durations that the per-layer medians need.
type engineTally struct {
	ops, rounds                               int
	regions, hits, visits, flags              float64
	specComputed, specWasted, calls, single   float64
	levels, msgs, moves, rebuilds             float64
	runCPU, runWall                           float64 // ms, over Runner.Run calls
	stepMS, firstStepMS, removeMS, finalizeMS []float64
}

func (t *engineTally) add(a, b engineSnap, rounds int) {
	t.ops++
	t.rounds += rounds
	t.regions += float64(b.c.BatchNodes - a.c.BatchNodes)
	t.hits += float64(b.c.CacheHits - a.c.CacheHits)
	t.visits += float64(b.c.CandidateVisits - a.c.CandidateVisits + b.c.PairVisits - a.c.PairVisits)
	t.flags += float64(b.c.FlagEvals - a.c.FlagEvals)
	t.specComputed += float64(b.c.SpecComputed - a.c.SpecComputed)
	t.specWasted += float64(b.c.SpecWasted - a.c.SpecWasted)
	t.calls += float64(b.c.BatchCalls - a.c.BatchCalls)
	t.single += float64(b.c.BatchSizeHist[0] - a.c.BatchSizeHist[0])
	t.levels += float64(b.c.Levels - a.c.Levels)
	t.msgs += float64(b.msgs - a.msgs)
	t.moves += float64(b.moves - a.moves)
	t.rebuilds += float64(b.rebuilds - a.rebuilds)
}

func (t *engineTally) layers(m map[string]float64) {
	ops := float64(t.ops)
	m["core.rounds_per_op"] = float64(t.rounds) / ops
	m["core.step_ms_p50"] = median(t.stepMS)
	m["core.finalize_ms"] = median(t.finalizeMS)
	m["core.regions_per_op"] = t.regions / ops
	m["core.cache_hit_ratio"] = ratio(t.hits, t.hits+t.regions)
	m["core.us_per_region"] = ratio(sum(t.stepMS)*1e3, t.regions)
	m["core.invalidation_visits_per_op"] = t.visits / ops
	m["core.flag_evals_per_op"] = t.flags / ops
	m["core.spec_wasted_frac"] = ratio(t.specWasted, t.specComputed)
	m["core.single_wave_frac"] = ratio(t.single, t.calls)
	m["core.levels_per_round"] = ratio(t.levels, float64(t.rounds))
	m["core.cpu_per_wall"] = ratio(t.runCPU, t.runWall)
	m["wsn.msgs_per_op"] = t.msgs / ops
	m["wsn.incremental_moves_per_op"] = t.moves / ops
	m["wsn.rebuilds_per_op"] = t.rebuilds / ops
}

// roundSpans turns the observer callbacks of one Runner.Run into core.step
// spans: a round's span runs from the end of the previous callback (or the
// start of Run) to the start of its own.
type roundSpans struct {
	tr     *tracer
	tally  *engineTally
	op     int
	parent int
	mark   time.Time
	rounds int
	// onRound, if set, is called with the engine after each round.
	onRound func(e *core.Engine, round int)
}

func (o *roundSpans) observe(r scenario.Runner, _ core.RoundStats) error {
	now := time.Now()
	o.tr.record("core.step", o.op, o.parent, o.mark, now)
	ms := float64(now.Sub(o.mark).Nanoseconds()) / 1e6
	o.tally.stepMS = append(o.tally.stepMS, ms)
	if o.rounds == 0 {
		o.tally.firstStepMS = append(o.tally.firstStepMS, ms)
	}
	o.rounds++
	if o.onRound != nil {
		if e, ok := scenario.Engine(r); ok {
			o.onRound(e, o.rounds)
		}
	}
	o.mark = time.Now()
	return nil
}

// finish records the finalize span, from the last callback to Run's return.
func (o *roundSpans) finish(end time.Time) {
	o.tr.record("core.finalize", o.op, o.parent, o.mark, end)
	o.tally.finalizeMS = append(o.tally.finalizeMS, float64(end.Sub(o.mark).Nanoseconds())/1e6)
}

// checkResult is the correctness gate on a deployment: converged, every
// position finite and inside the region, and k-coverage at coverageRes.
func checkResult(res *core.Result, reg *region.Region, k int) error {
	if !res.Converged {
		return fmt.Errorf("not converged after %d rounds", res.Rounds)
	}
	if len(res.Radii) != len(res.Positions) {
		return fmt.Errorf("%d radii for %d positions", len(res.Radii), len(res.Positions))
	}
	for i, p := range res.Positions {
		if math.IsNaN(p.X) || math.IsNaN(p.Y) || math.IsInf(p.X, 0) || math.IsInf(p.Y, 0) || !reg.Contains(p) {
			return fmt.Errorf("node %d at %v is not a finite point of the region", i, p)
		}
	}
	if rep := coverage.VerifyWorkers(res.Positions, res.Radii, reg, coverageRes, 2); !rep.KCovered(k) {
		return fmt.Errorf("not %d-covered: %v", k, rep)
	}
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
