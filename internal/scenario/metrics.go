package scenario

import (
	"laacad/internal/core"
	"laacad/internal/metrics"
)

// WithMetrics publishes the run's observability surface into reg:
//
//   - Live gauges over the WSN's concurrency-safe counters — the committed
//     message total ("wsn.messages") and the speculative escrow depth
//     ("wsn.escrow_depth"). These read true atomics, so a scrape taken in
//     the middle of a round (even mid-wave) is exact and monotone: the
//     deferred-charge ledger guarantees the committed total never includes
//     speculative work and never moves backwards.
//
//   - Per-round counters snapshotted by an internal observer after every
//     completed round: the engine's cumulative cache/invalidation work
//     ("cache.*"), colored-sweep speculation accounting ("spec.*"), the
//     level scheduler's layout and wave widths ("engine.levels",
//     "engine.level_width_max", "batch.size_*") and batch-kernel volume
//     ("batch.calls", "batch.nodes"),
//     incremental boundary-flag evaluations ("flags.evals"), spatial-index
//     work ("wsn.rebuilds", "wsn.incremental_moves"), and round progress
//     ("engine.rounds", "engine.moved_last_round",
//     "engine.messages_last_round"). Their sources are plain fields owned
//     by the engine goroutine, so they are published only at the between-
//     rounds observation point.
//
// The option composes with WithObserver and WithSnapshotEvery; publication
// happens before the user observer runs, so an observer reading reg sees
// the round it was called for. Async (event-driven) runners publish only
// the round-progress counters.
func WithMetrics(reg *metrics.Registry) Option {
	return func(o *options) { o.metrics = reg }
}

// instrument registers r's gauges in reg and returns the per-round
// publication callback attach folds into the engine observer.
func instrument(r *labeledRunner, reg *metrics.Registry) func(core.RoundStats) {
	rounds := reg.Counter("engine.rounds")
	moved := reg.Counter("engine.moved_last_round")
	msgs := reg.Counter("engine.messages_last_round")
	eng, ok := Engine(r)
	if !ok {
		return func(st core.RoundStats) {
			rounds.Set(int64(st.Round))
			moved.Set(int64(st.Moved))
			msgs.Set(st.Messages)
		}
	}
	net := eng.Network()
	reg.Gauge("wsn.messages", net.MessageCount)
	reg.Gauge("wsn.escrow_depth", net.EscrowDepth)
	counters := map[string]*metrics.Counter{
		"cache.hits":             reg.Counter("cache.hits"),
		"cache.inverse_scans":    reg.Counter("cache.inverse_scans"),
		"cache.pair_scans":       reg.Counter("cache.pair_scans"),
		"cache.cell_visits":      reg.Counter("cache.cell_visits"),
		"cache.candidate_visits": reg.Counter("cache.candidate_visits"),
		"cache.pair_visits":      reg.Counter("cache.pair_visits"),
		"cache.bound_rebuilds":   reg.Counter("cache.bound_rebuilds"),
		"cache.local_flushes":    reg.Counter("cache.local_flushes"),
		"spec.waves":             reg.Counter("spec.waves"),
		"spec.computed":          reg.Counter("spec.computed"),
		"spec.used":              reg.Counter("spec.used"),
		"spec.wasted":            reg.Counter("spec.wasted"),
		"engine.levels":          reg.Counter("engine.levels"),
		"engine.level_width_max": reg.Counter("engine.level_width_max"),
		"batch.calls":            reg.Counter("batch.calls"),
		"batch.nodes":            reg.Counter("batch.nodes"),
		"flags.evals":            reg.Counter("flags.evals"),
		"wsn.rebuilds":           reg.Counter("wsn.rebuilds"),
		"wsn.incremental_moves":  reg.Counter("wsn.incremental_moves"),
	}
	// Wave-size histogram: one counter per bucket, set from the engine's
	// cumulative BatchSizeHist after every round.
	sizeBuckets := [...]*metrics.Counter{
		reg.Counter("batch.size_1"),
		reg.Counter("batch.size_2_3"),
		reg.Counter("batch.size_4_7"),
		reg.Counter("batch.size_8_15"),
		reg.Counter("batch.size_16_31"),
		reg.Counter("batch.size_32_plus"),
	}
	return func(st core.RoundStats) {
		rounds.Set(int64(st.Round))
		moved.Set(int64(st.Moved))
		msgs.Set(st.Messages)
		cc := eng.CacheCounters()
		counters["cache.hits"].Set(int64(cc.CacheHits))
		counters["cache.inverse_scans"].Set(int64(cc.InverseScans))
		counters["cache.pair_scans"].Set(int64(cc.PairScans))
		counters["cache.cell_visits"].Set(int64(cc.CellVisits))
		counters["cache.candidate_visits"].Set(int64(cc.CandidateVisits))
		counters["cache.pair_visits"].Set(int64(cc.PairVisits))
		counters["cache.bound_rebuilds"].Set(int64(cc.BoundRebuilds))
		counters["cache.local_flushes"].Set(int64(cc.LocalFlushes))
		counters["spec.waves"].Set(int64(cc.Waves))
		counters["spec.computed"].Set(int64(cc.SpecComputed))
		counters["spec.used"].Set(int64(cc.SpecUsed))
		counters["spec.wasted"].Set(int64(cc.SpecWasted))
		counters["engine.levels"].Set(int64(cc.Levels))
		counters["engine.level_width_max"].Set(int64(cc.LevelWidthMax))
		counters["batch.calls"].Set(int64(cc.BatchCalls))
		counters["batch.nodes"].Set(int64(cc.BatchNodes))
		for b, ctr := range sizeBuckets {
			ctr.Set(int64(cc.BatchSizeHist[b]))
		}
		counters["flags.evals"].Set(int64(cc.FlagEvals))
		counters["wsn.rebuilds"].Set(int64(net.Rebuilds()))
		counters["wsn.incremental_moves"].Set(int64(net.IncrementalMoves()))
	}
}
