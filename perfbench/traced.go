package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
)

// tracedRun measures the per-layer metrics. It first repeats one untraced
// cold sweep and warm pass (the reference the traced passes must
// reproduce, and the base of the tracing overhead), then two traced
// passes over the same cells:
//
//   - the traced pass computes each cell through the experiment package's
//     cell entry point with plan construction timed, then again by calling
//     the engine itself, each simulation once with only the engine call
//     timed and once with every dispatcher Next and error draw timed;
//   - the persistence pass writes every cell to a fresh cache (and
//     checkpoint) and reads it back, timing each call.
//
// Each pass must reproduce the untraced cells bit for bit and the
// untraced DES event and chunk counts.
func tracedRun(ctx context.Context, wl *gridWorkload, p *pin, dir string) (report, error) {
	var t tally
	s, err := wl.open(filepath.Join(dir, "untraced"))
	if err != nil {
		return report{}, fmt.Errorf("set-up: %w", err)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	u, wall, _, err := timeCold(ctx, s)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return report{}, fmt.Errorf("untraced sweep: %w", errJoinClose(err, s))
	}
	checkSweep(&t, u, u.cells, p)
	var shard shardFigures
	if fs, ok := s.(*fleetSession); ok {
		if shard, err = fs.shardStats(wall); err != nil {
			return report{}, errJoinClose(err, s)
		}
	}
	if _, err := rerun(ctx, s, u.cells, &t); err != nil {
		return report{}, errJoinClose(err, s)
	}
	rt := s.roundTrips()
	t.attempted += rt.attempted
	t.failed += rt.failed
	if err := s.close(); err != nil {
		return report{}, err
	}
	allocMB, gcs := memDelta(&m0, &m1)

	tr := newTracer()
	tr.clockNS = clockCost()
	h, e, err := wl.tracedPass(ctx, tr)
	if err != nil {
		return report{}, fmt.Errorf("traced pass: %w", err)
	}
	restored, err := wl.persistPass(filepath.Join(dir, "persist"), u.cells, tr)
	if err != nil {
		return report{}, fmt.Errorf("persistence pass: %w", err)
	}
	compareCells(&t, h.cells, u.cells, true)
	compareCells(&t, e.cells, u.cells, true)
	compareCells(&t, restored, u.cells, true)
	// The untraced sweep's counts must repeat exactly, in the harness and
	// in the replica, whose timed reruns must match its bare runs.
	ctr := h.counters
	draws := ctr.TruncNormalDraws + ctr.UniformDraws + ctr.OtherDraws
	for _, same := range []bool{
		h.events == u.events, e.events == u.events,
		h.chunks == u.chunks, e.chunks == u.chunks,
		e.counters == ctr, tr.draws == draws, e.diverged == 0,
	} {
		t.check(same)
	}

	sec := func(ns int64) float64 { return float64(ns) / 1e9 }
	frac := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	var cellNS int64
	cellMS := make([]float64, len(tr.cellNS))
	for i, ns := range tr.cellNS {
		cellNS += ns
		cellMS[i] = float64(ns) / 1e6
	}
	// A timed call's span includes one clock read; take it out.
	nextNS := math.Max(0, float64(tr.nextNS)-float64(tr.nextCalls)*tr.clockNS)
	drawNS := math.Max(0, float64(tr.drawNS)-float64(tr.draws)*tr.clockNS)
	// The self times subtract spans of one execution from those of
	// another (see tracer), so drift between the two can push them below
	// zero; the metrics stop at zero and the context line keeps the raw
	// differences.
	engineSelfNS := float64(tr.runNS) - nextNS - drawNS
	printInfo("trace", map[string]any{
		"untraced_sweep_s": wall, "harness_s": sec(cellNS), "engine_runs": tr.runs,
		"engine_bare_s": sec(tr.runNS), "engine_timed_s": sec(tr.tracedRunNS),
		"digest": u.cells.digest(), "events": u.events, "chunks": u.chunks, "simulations": u.sims,
		"clock_ns": tr.clockNS, "coordinator_dials": shard.dials,
		"engine_self_raw_s": engineSelfNS / 1e9, "experiment_self_raw_s": sec(tr.selfNS),
	})
	m := map[string]metric{
		"des.events":         {float64(u.events), "count"},
		"des.replaced_frac":  {frac(ctr.EventsReplaced, ctr.EventsPushed), "frac"},
		"des.max_heap_depth": {float64(ctr.MaxHeapDepth), "count"},

		"engine.run_s":           {sec(tr.runNS), "s"},
		"engine.self_s":          {math.Max(0, engineSelfNS) / 1e9, "s"},
		"engine.view_sync_bytes": {float64(ctr.SyncViewBytes), "bytes"},
		"engine.view_syncs":      {float64(ctr.SyncViewCopies), "count"},
		"engine.chunks":          {float64(u.chunks), "count"},

		"sched.next_calls":        {float64(tr.nextCalls), "count"},
		"sched.next_s":            {nextNS / 1e9, "s"},
		"sched.next_decline_frac": {frac(tr.nextDeclined, tr.nextCalls), "frac"},
		"sched.plans":             {float64(tr.plans), "count"},
		"sched.plan_s":            {sec(tr.planTotal()), "s"},
		"sched.plan_s.mi":         {sec(tr.planNS["mi"]), "s"},
		"sched.plan_s.umr":        {sec(tr.planNS["umr"]), "s"},
		"sched.plan_s.rumr":       {sec(tr.planNS["rumr"]), "s"},

		"perferr.draws":  {float64(tr.draws), "count"},
		"perferr.draw_s": {drawNS / 1e9, "s"},

		"experiment.cells":       {float64(len(tr.cellNS)), "count"},
		"experiment.cell_p50_ms": {quantile(cellMS, 0.5), "ms"},
		"experiment.cell_p95_ms": {quantile(cellMS, 0.95), "ms"},
		"experiment.self_s":      {math.Max(0, float64(tr.selfNS)) / 1e9, "s"},

		"experiment.cache.puts":          {float64(tr.cachePuts), "count"},
		"experiment.cache.put_s":         {sec(tr.cachePutNS), "s"},
		"experiment.cache.gets":          {float64(tr.cacheGets), "count"},
		"experiment.cache.get_s":         {sec(tr.cacheGetNS), "s"},
		"experiment.cache.hit_frac":      {frac(tr.cacheHits, tr.cacheGets), "frac"},
		"experiment.checkpoint.appends":  {float64(tr.appends), "count"},
		"experiment.checkpoint.append_s": {sec(tr.appendNS), "s"},

		"shard.leases":           {float64(shard.leases), "count"},
		"shard.lease_p50_ms":     {shard.leaseP50, "ms"},
		"shard.lease_p95_ms":     {shard.leaseP95, "ms"},
		"shard.reissued":         {float64(shard.reissued), "count"},
		"shard.worker_idle_frac": {shard.idleFrac, "frac"},

		"runtime.alloc_mb":  {allocMB, "MB"},
		"runtime.gc_cycles": {float64(gcs), "count"},

		// Tracing overhead: the harness cells (plans timed) against the
		// untraced sweep, and the replica's timed runs against its bare ones.
		"trace.harness_overhead_frac": {sec(cellNS)/wall - 1, "frac"},
		"trace.call_overhead_frac":    {frac(tr.tracedRunNS-tr.runNS, tr.runNS), "frac"},
		"trace.clock_ns":              {tr.clockNS, "ns"},
	}
	return report{Correct: t.failed == 0 && t.attempted > 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}, nil
}

// errJoinClose closes s after err, keeping err first.
func errJoinClose(err error, s session) error {
	if cerr := s.close(); cerr != nil {
		return fmt.Errorf("%w (teardown: %v)", err, cerr)
	}
	return err
}
