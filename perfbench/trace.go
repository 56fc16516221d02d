package main

import (
	"time"

	"rumr/internal/engine"
	"rumr/internal/perferr"
	"rumr/internal/sched"
	"rumr/internal/sched/mi"
	"rumr/internal/sched/rumr"
	"rumr/internal/sched/umr"
)

// tracer accumulates the spans the traced passes record around calls into
// each layer. Per-call spans (Next, Perturb, engine runs, plan
// construction, cache and checkpoint calls) are summed as they close —
// tens of millions of them would not fit in memory — while per-cell spans
// are kept whole for their percentiles. Everything is printed when the run
// ends. A tracer serves one goroutine.
type tracer struct {
	plans  int64
	planNS map[string]int64 // by planner kind: mi, umr, rumr, other

	nextCalls, nextDeclined, nextNS int64
	draws, drawNS                   int64
	// runNS times bare engine runs; tracedRunNS the same runs repeated
	// with every Next and Perturb timed. engine.self_s is runNS less the
	// Next and Perturb time of the repeats. The repeats' own time less
	// their spans would overstate it: a wrapped call cost about 170 ns more
	// than a bare one on a 2.0 GHz Xeon guest, of which the spans hold
	// only the 48 ns clock read.
	runs, runNS, tracedRunNS int64

	// cellNS holds each harness cell's duration; selfNS sums each cell's
	// duration less its plan construction and its bare engine runs. The
	// harness runs the engine out of reach of a timer, so the engine term
	// comes from the replica's bare runs of the same cell, made right
	// after it: the difference can fall below zero when the machine's
	// speed changes between the two.
	cellNS []int64
	selfNS int64
	// clockNS is what one timed span adds to the duration it reports.
	clockNS float64

	cacheGets, cacheHits, cacheGetNS int64
	cachePuts, cachePutNS            int64
	appends, appendNS                int64
}

func newTracer() *tracer { return &tracer{planNS: map[string]int64{}} }

func since(t0 time.Time) int64 { return int64(time.Since(t0)) }

// planKind names the planner family of a scheduler, for sched.plan_s.*.
func planKind(s sched.Scheduler) string {
	switch s.(type) {
	case mi.Scheduler:
		return "mi"
	case umr.Scheduler:
		return "umr"
	case rumr.Scheduler:
		return "rumr"
	}
	return "other"
}

// timedScheduler times dispatcher construction — the plan — and hands
// back the dispatcher it built unwrapped, so the runs themselves carry no
// tracing cost.
type timedScheduler struct {
	sched.Scheduler
	kind string
	tr   *tracer
}

func (s timedScheduler) NewDispatcher(pr *sched.Problem) (engine.Dispatcher, error) {
	t0 := time.Now()
	d, err := s.Scheduler.NewDispatcher(pr)
	s.tr.plan(s.kind, t0)
	return d, err
}

// timedMemoizer keeps sched.Memoizer for schedulers that have it: the
// cell harness builds through the memo exactly when the scheduler offers
// one.
type timedMemoizer struct {
	timedScheduler
	m sched.Memoizer
}

func (s timedMemoizer) NewDispatcherMemo(pr *sched.Problem, m *sched.Memo) (engine.Dispatcher, error) {
	t0 := time.Now()
	d, err := s.m.NewDispatcherMemo(pr, m)
	s.tr.plan(s.kind, t0)
	return d, err
}

func (tr *tracer) plan(kind string, t0 time.Time) {
	tr.planNS[kind] += since(t0)
	tr.plans++
}

func timedSchedulers(algos []sched.Scheduler, tr *tracer) []sched.Scheduler {
	out := make([]sched.Scheduler, len(algos))
	for i, a := range algos {
		ts := timedScheduler{Scheduler: a, kind: planKind(a), tr: tr}
		if m, ok := a.(sched.Memoizer); ok {
			out[i] = timedMemoizer{timedScheduler: ts, m: m}
		} else {
			out[i] = ts
		}
	}
	return out
}

// timedDispatcher times every Next call. The variants below keep the
// optional interfaces the engine asserts on a fault-free run without an
// event sink — engine.Observer and engine.ExhaustedDispatcher — so a
// wrapped run follows exactly the path of the bare one. Reset and
// PlannedChunks are called on the bare dispatcher by the pass itself.
type timedDispatcher struct {
	d  engine.Dispatcher
	tr *tracer
}

func (w *timedDispatcher) Next(v *engine.View) (engine.Chunk, bool) {
	t0 := time.Now()
	c, ok := w.d.Next(v)
	w.tr.nextNS += since(t0)
	w.tr.nextCalls++
	if !ok {
		w.tr.nextDeclined++
	}
	return c, ok
}

type observingDispatcher struct {
	*timedDispatcher
	engine.Observer
}

type exhaustibleDispatcher struct {
	*timedDispatcher
	engine.ExhaustedDispatcher
}

type observingExhaustibleDispatcher struct {
	*timedDispatcher
	engine.Observer
	engine.ExhaustedDispatcher
}

func timedDispatch(d engine.Dispatcher, tr *tracer) engine.Dispatcher {
	td := &timedDispatcher{d: d, tr: tr}
	o, isObs := d.(engine.Observer)
	x, isExh := d.(engine.ExhaustedDispatcher)
	switch {
	case isObs && isExh:
		return observingExhaustibleDispatcher{td, o, x}
	case isObs:
		return observingDispatcher{td, o}
	case isExh:
		return exhaustibleDispatcher{td, x}
	}
	return td
}

// timedModel times every Perturb call: one error draw.
type timedModel struct {
	m  perferr.Model
	tr *tracer
}

func (w *timedModel) Perturb(predicted float64) float64 {
	t0 := time.Now()
	x := w.m.Perturb(predicted)
	w.tr.drawNS += since(t0)
	w.tr.draws++
	return x
}

func (w *timedModel) Error() float64 { return w.m.Error() }

// run records one call into the engine that started at t0.
func (tr *tracer) run(traced bool, t0 time.Time) {
	if traced {
		tr.tracedRunNS += since(t0)
		return
	}
	tr.runNS += since(t0)
	tr.runs++
}

// cell records one harness cell: its duration, and the plan and engine
// time spent on it.
func (tr *tracer) cell(cellNS, planNS, runNS int64) {
	tr.cellNS = append(tr.cellNS, cellNS)
	tr.selfNS += cellNS - planNS - runNS
}

func (tr *tracer) planTotal() int64 {
	var sum int64
	for _, ns := range tr.planNS {
		sum += ns
	}
	return sum
}

// clockCost measures what one timed span adds to the duration it
// reports: the duration of an empty span, median over several rounds.
func clockCost() float64 {
	const n = 200_000
	rounds := make([]float64, 9)
	for r := range rounds {
		var sum int64
		for i := 0; i < n; i++ {
			t0 := time.Now()
			sum += since(t0)
		}
		rounds[r] = float64(sum) / n
	}
	return median(rounds)
}
