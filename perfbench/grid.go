package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"time"

	"rumr/internal/engine"
	"rumr/internal/experiment"
	"rumr/internal/metrics"
	"rumr/internal/perferr"
	"rumr/internal/rng"
	"rumr/internal/sched"
)

// gridWorkload sweeps an experiment.Grid with the seven standard
// algorithms under the paper's truncated-normal error: locally on one
// simulation worker (table2), or through a shard coordinator and one
// in-process worker over loopback HTTP (fleet).
type gridWorkload struct {
	grid  experiment.Grid
	fleet bool
}

// table2Grid is the ReducedGrid sweep behind EXPERIMENTS.md's Table 2:
// 240 configurations × 13 errors × 10 repetitions × 7 algorithms.
func table2Grid(seed uint64) experiment.Grid {
	g := experiment.ReducedGrid()
	g.BaseSeed = seed
	return g
}

// fleetGrid is a slice of the paper's Table 1 grid at one error and one
// repetition: 2 × 9 × 11 × 11 = 2,178 configurations, each planned once
// per algorithm, so planning dominates the simulation work. Two Ns keep a
// cold sweep short enough to repeat within one run.
func fleetGrid(seed uint64) experiment.Grid {
	g := experiment.PaperGrid()
	g.Ns = []int{10, 20}
	g.Errors = []float64{0.2}
	g.Reps = 1
	g.BaseSeed = seed
	return g
}

func algorithmNames(algos []sched.Scheduler) []string {
	names := make([]string, len(algos))
	for i, a := range algos {
		names[i] = a.Name()
	}
	return names
}

// size is the number of cells one sweep produces.
func (w *gridWorkload) size() int { return len(w.grid.Configs()) }

// open does what the timed sweep needs before it starts, and no more: the
// set-up setup_s times. The session's cache and checkpoint are named after
// base, in a directory that already exists, and the sweep creates and
// opens them itself, as rumrsweep's runner and coordinator do. So set-up
// touches no file: on a shared 2-vCPU KVM guest one mkdir took 25 to
// 350 µs depending on the other guests' disk traffic, several times the
// rest of table2's set-up (algorithms, runner, metrics collector).
func (w *gridWorkload) open(base string) (session, error) {
	cache, ckpt := base+"-cache", base+"-checkpoint.jsonl"
	if w.fleet {
		s, err := openFleet(w.grid, cache)
		if err != nil {
			return nil, err
		}
		return s, nil
	}
	algos := experiment.StandardAlgorithms()
	met := metrics.New()
	return &localSession{
		grid: w.grid,
		met:  met,
		runner: &experiment.Runner{
			Algorithms:     algos,
			Workers:        1,
			CachePath:      cache,
			CheckpointPath: ckpt,
			Metrics:        met,
		},
	}, nil
}

// localSession sweeps on the local Runner, as rumrsweep -table2 -cache
// -checkpoint -workers 1 does.
type localSession struct {
	grid   experiment.Grid
	runner *experiment.Runner
	met    *metrics.Collector
}

func (s *localSession) cold(ctx context.Context) (sweepOut, error) {
	res, err := s.runner.SweepContext(ctx, s.grid)
	if err != nil {
		return sweepOut{}, err
	}
	snap := s.met.Snapshot()
	return sweepOut{
		cells: res.Mean, sims: snap.Simulations, events: snap.Events, chunks: snap.Chunks,
		win: experiment.OverallWinPercent(res, 0),
	}, nil
}

// warm re-sweeps with the cache alone, as a second process sharing the
// cache directory would.
func (s *localSession) warm(ctx context.Context) (cellSet, error) {
	r := &experiment.Runner{Algorithms: s.runner.Algorithms, Workers: 1, CachePath: s.runner.CachePath}
	res, err := r.SweepContext(ctx, s.grid)
	if err != nil {
		return nil, err
	}
	return res.Mean, nil
}

func (s *localSession) roundTrips() tally { return tally{} }
func (s *localSession) close() error      { return nil }

// build constructs a dispatcher the way the cell harness does: through
// the memo when the scheduler has one.
func build(a sched.Scheduler, pr *sched.Problem, memo *sched.Memo) (engine.Dispatcher, error) {
	if m, ok := a.(sched.Memoizer); ok {
		return m.NewDispatcherMemo(pr, memo)
	}
	return a.NewDispatcher(pr)
}

// tracedPass recomputes the sweep one configuration at a time. First
// through Runner.ComputeCellInto — the entry point of both the local pool
// and shard workers — with plan construction timed. Then twice through
// replicaCell: bare, with only the engine calls timed, and again with
// every Next and Perturb timed; the timed runs must repeat the bare ones.
func (w *gridWorkload) tracedPass(ctx context.Context, tr *tracer) (harness, replica passOut, err error) {
	met := metrics.New()
	r := &experiment.Runner{Algorithms: timedSchedulers(experiment.StandardAlgorithms(), tr), Metrics: met}
	cs := experiment.NewCellState()
	for _, cfg := range w.grid.Configs() {
		block := experiment.NewCellBlock(len(w.grid.Errors), len(r.Algorithms))
		plan0, run0 := tr.planTotal(), tr.runNS
		t0 := time.Now()
		if err := r.ComputeCellInto(ctx, w.grid, cfg, cs, block); err != nil {
			return harness, replica, err
		}
		cellNS := since(t0)
		planNS := tr.planTotal() - plan0
		harness.cells = append(harness.cells, block)
		harness.counters.Merge(cs.Counters())

		rblock, bare, err := w.replicaCell(ctx, cfg, tr, false, &replica)
		if err != nil {
			return harness, replica, err
		}
		_, timed, err := w.replicaCell(ctx, cfg, tr, true, nil)
		if err != nil {
			return harness, replica, err
		}
		replica.cells = append(replica.cells, rblock)
		replica.diverged += diverged(bare, timed)
		tr.cell(cellNS, planNS, tr.runNS-run0)
	}
	snap := met.Snapshot()
	harness.events, harness.chunks = snap.Events, snap.Chunks
	return harness, replica, nil
}

// runSig identifies one run's outcome, to check that a timed rerun
// repeated it.
type runSig struct {
	makespan float64
	events   uint64
}

func diverged(bare, timed []runSig) int64 {
	n := int64(len(bare) - len(timed))
	if n < 0 {
		n = -n
	}
	for i := range bare {
		if i < len(timed) && bare[i] != timed[i] {
			n++
		}
	}
	return n
}

// replicaCell recomputes configuration cfg by calling engine.Run itself,
// under the cell harness's public contract: one memo per configuration,
// one dispatcher per (error, algorithm) rewound with Reset between
// repetitions, error streams seeded from (seed, configuration values,
// error, repetition) and split comm-then-comp, the same chunk-count hints,
// and the mean makespan over repetitions. Bare (traced false), it times
// only the engine calls and adds the runs' counts to out; traced, it times
// every Next and Perturb instead. It returns the cell's block and each
// run's outcome.
func (w *gridWorkload) replicaCell(ctx context.Context, cfg experiment.Config, tr *tracer, traced bool, out *passOut) ([][]float64, []runSig, error) {
	g := w.grid
	algos := experiment.StandardAlgorithms()
	nA := len(algos)
	// The loop allocates nothing per run, like the harness: garbage would
	// bring the collector's write barriers into the timed engine calls.
	var src, commSrc, compSrc rng.Source
	protos := make([]engine.Dispatcher, nA)
	expected := make([]int, nA)
	sums := make([]float64, nA)
	p := cfg.Platform()
	memo := sched.NewMemo(p)
	block := experiment.NewCellBlock(len(g.Errors), nA)
	runs := make([]runSig, 0, len(g.Errors)*g.Reps*nA)
	for ei, errMag := range g.Errors {
		pr := sched.Problem{Platform: p, Total: g.Total, KnownError: errMag, MinUnit: 1}
		for ai, a := range algos {
			protos[ai], expected[ai], sums[ai] = nil, 0, 0
			if d, err := build(a, &pr, memo); err == nil {
				protos[ai] = d
				if pl, ok := d.(sched.Planned); ok {
					expected[ai] = pl.PlannedChunks()
				}
			}
		}
		var comm, comp perferr.Model = perferr.Perfect{}, perferr.Perfect{}
		if errMag > 0 {
			comm = &perferr.TruncNormal{Err: errMag, Src: &commSrc}
			comp = &perferr.TruncNormal{Err: errMag, Src: &compSrc}
			if traced {
				comm, comp = &timedModel{m: comm, tr: tr}, &timedModel{m: comp, tr: tr}
			}
		}
		for rep := 0; rep < g.Reps; rep++ {
			if err := ctx.Err(); err != nil {
				return nil, nil, err
			}
			for ai, a := range algos {
				d := protos[ai]
				if d == nil {
					continue
				}
				if rp, ok := d.(sched.Replayable); ok {
					rp.Reset()
				} else {
					var err error
					if d, err = build(a, &pr, memo); err != nil {
						return nil, nil, fmt.Errorf("%s on %s: rebuild failed: %w", a.Name(), cfg, err)
					}
				}
				src.ReseedFrom(g.BaseSeed, uint64(cfg.N), math.Float64bits(cfg.R),
					math.Float64bits(cfg.CLat), math.Float64bits(cfg.NLat),
					math.Float64bits(errMag), uint64(rep))
				src.SplitInto(&commSrc)
				src.SplitInto(&compSrc)
				opts := engine.Options{CommModel: comm, CompModel: comp, ExpectedChunks: expected[ai]}
				if traced {
					d = timedDispatch(d, tr)
				} else {
					opts.Counters = &out.counters
				}
				t0 := time.Now()
				res, err := engine.Run(p, d, opts)
				tr.run(traced, t0)
				if err != nil {
					return nil, nil, fmt.Errorf("%s on %s: %w", a.Name(), cfg, err)
				}
				if math.Abs(res.DispatchedWork-g.Total) > 1e-6*g.Total {
					return nil, nil, fmt.Errorf("%s on %s dispatched %g of %g", a.Name(), cfg, res.DispatchedWork, g.Total)
				}
				runs = append(runs, runSig{res.Makespan, res.Events})
				if !traced {
					out.events += int64(res.Events)
					out.chunks += int64(res.Chunks)
				}
				expected[ai] = res.Chunks
				sums[ai] += res.Makespan
			}
		}
		for ai := range algos {
			if protos[ai] == nil {
				block[ei][ai] = math.NaN()
			} else {
				block[ei][ai] = sums[ai] / float64(g.Reps)
			}
		}
	}
	return block, runs, nil
}

// persistPass stores every cell in a fresh cache and checkpoint, as
// SweepState.Complete does, then restores each from the cache.
func (w *gridWorkload) persistPass(dir string, cells cellSet, tr *tracer) (cellSet, error) {
	g := w.grid
	names := algorithmNames(experiment.StandardAlgorithms())
	cache, err := experiment.OpenCache(filepath.Join(dir, "cache"))
	if err != nil {
		return nil, err
	}
	ck, err := experiment.OpenCheckpoint(filepath.Join(dir, "checkpoint.jsonl"),
		experiment.Fingerprint(g, names, experiment.NormalError, false))
	if err != nil {
		return nil, err
	}
	defer ck.Close()
	configs := g.Configs()
	keys := make([]string, len(configs))
	for ci, cfg := range configs {
		keys[ci] = experiment.CellKey(g, names, experiment.NormalError, false, cfg)
		t0 := time.Now()
		err := ck.Append(ci, cells[ci])
		tr.appendNS += since(t0)
		tr.appends++
		if err != nil {
			return nil, err
		}
		t0 = time.Now()
		err = cache.Put(keys[ci], cfg, cells[ci])
		tr.cachePutNS += since(t0)
		tr.cachePuts++
		if err != nil {
			return nil, err
		}
	}
	got := make(cellSet, len(configs))
	for ci := range configs {
		t0 := time.Now()
		block, ok := cache.Get(keys[ci], len(g.Errors), len(names))
		tr.cacheGetNS += since(t0)
		tr.cacheGets++
		if ok {
			tr.cacheHits++
			got[ci] = block
		}
	}
	return got, ck.Close()
}
