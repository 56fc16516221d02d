package main

import (
	"context"
	_ "embed"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"

	"rumr/internal/engine"
)

// A session is one opened workload: one cold sweep, then warm re-sweeps
// against the cache the cold sweep filled.
type session interface {
	cold(ctx context.Context) (sweepOut, error)
	warm(ctx context.Context) (cellSet, error)
	// roundTrips reports the HTTP round trips the session made (attempted,
	// failed); zero for sessions without a network layer.
	roundTrips() tally
	close() error
}

// cellSet is a sweep's output: one [rows][algorithms] block per cell, in
// grid order. NaN marks an algorithm that is infeasible on the cell,
// which is expected output.
type cellSet [][][]float64

// digest hashes every value bit for bit, with one canonical NaN.
func (c cellSet) digest() string {
	h := fnv.New64a()
	var b [8]byte
	for _, block := range c {
		for _, row := range block {
			for _, v := range row {
				binary.LittleEndian.PutUint64(b[:], canonicalBits(v))
				h.Write(b[:])
			}
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func sameBlock(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if canonicalBits(a[i][j]) != canonicalBits(b[i][j]) {
				return false
			}
		}
	}
	return true
}

func canonicalBits(v float64) uint64 {
	if math.IsNaN(v) {
		return 0x7ff8000000000001
	}
	return math.Float64bits(v)
}

// compareCells checks every cell of got against want, one operation per
// cell of want; ok=false fails them all (a digest or aggregate mismatch).
func compareCells(t *tally, got, want cellSet, ok bool) {
	for i := range want {
		t.check(ok && i < len(got) && sameBlock(got[i], want[i]))
	}
	if extra := len(got) - len(want); extra > 0 {
		t.fail(int64(extra))
	}
}

// sweepOut is one cold sweep's output and work counts.
type sweepOut struct {
	cells                cellSet
	sims, events, chunks int64
	// win is the overall RUMR win percentage (Table 2's summary figure).
	win float64
}

// passOut is one traced pass's output and the engine counts it observed.
type passOut struct {
	cells          cellSet
	events, chunks int64
	counters       engine.Counters
	// diverged counts simulations whose timed rerun disagreed with the
	// bare run.
	diverged int64
}

//go:embed reference.json
var referenceJSON []byte

// pin is the expected output of one workload at the default seed.
type pin struct {
	Digest string `json:"digest"`
	// WinPct is the overall win percentage rounded to one decimal, as
	// EXPERIMENTS.md reports it; empty when not checked.
	WinPct string `json:"overall_win_pct,omitempty"`
}

type reference struct {
	Seed      uint64         `json:"seed"`
	Workloads map[string]pin `json:"workloads"`
}

func loadReference() (reference, error) {
	var r reference
	if err := json.Unmarshal(referenceJSON, &r); err != nil {
		return r, fmt.Errorf("reference.json: %w", err)
	}
	return r, nil
}

// pinned returns the expected output for (workload, seed), or nil when
// the seed has none: other seeds are checked for self-consistency only.
func (r reference) pinned(name string, seed uint64) *pin {
	if seed != r.Seed {
		return nil
	}
	if p, ok := r.Workloads[name]; ok {
		return &p
	}
	return nil
}

// checkSweep counts one operation per cell: each must equal ref, and with
// a pinned reference the sweep's digest (and Table 2 win rate) must match.
func checkSweep(t *tally, out sweepOut, ref cellSet, p *pin) {
	ok := true
	if p != nil {
		ok = out.cells.digest() == p.Digest
		if p.WinPct != "" && strconv.FormatFloat(out.win, 'f', 1, 64) != p.WinPct {
			ok = false
		}
	}
	compareCells(t, out.cells, ref, ok)
}

// Set-up takes a millisecond or less, so setup_s is timed in blocks:
// each block repeats set-up and teardown until the set-ups alone have
// lasted setupBlock, and its value is the mean set-up time; setup_s is the
// median of setupBlocks blocks. They run at the end of the run: in the
// first milliseconds of a process that follows a build or another run,
// set-up ran up to ten times slower than later in the same process, and
// the garbage of thousands of set-ups would enter peak_rss_mb, which is
// read before them.
const (
	setupBlock  = 100 * time.Millisecond
	setupBlocks = 5
)

// Warm passes take milliseconds, so each session times warmBlocks blocks
// of passes, each repeating passes until it lasts warmBlock; a block's
// value is its mean pass time, and rerun_s is the median block.
const (
	warmBlock  = 250 * time.Millisecond
	warmBlocks = 4
)

// timeSetup times one block of set-ups of sessions named after base and
// returns the mean set-up time. Set-up writes no file, so there is none to
// remove.
func timeSetup(wl *gridWorkload, base string) (float64, error) {
	var total time.Duration
	n := 0
	for ; total < setupBlock; n++ {
		t0 := time.Now()
		s, err := wl.open(base)
		total += time.Since(t0)
		if err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		if err := s.close(); err != nil {
			return 0, fmt.Errorf("set-up teardown: %w", err)
		}
	}
	return total.Seconds() / float64(n), nil
}

// removeSession deletes the cache and checkpoint of the session named
// after base.
func removeSession(base string) error {
	paths, err := filepath.Glob(base + "-*")
	if err != nil {
		return err
	}
	for _, p := range paths {
		if err := os.RemoveAll(p); err != nil {
			return err
		}
	}
	return nil
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// timeCold runs the session's cold sweep, returning its wall and CPU
// seconds.
func timeCold(ctx context.Context, s session) (sweepOut, float64, float64, error) {
	c0, t0 := cpuSeconds(), time.Now()
	out, err := s.cold(ctx)
	return out, time.Since(t0).Seconds(), cpuSeconds() - c0, err
}

// rerun times warmBlocks blocks of warm passes and returns each block's
// mean pass time; every cell of every pass must equal the cold sweep's.
func rerun(ctx context.Context, s session, cold cellSet, t *tally) ([]float64, error) {
	blocks := make([]float64, warmBlocks)
	for b := range blocks {
		t0 := time.Now()
		passes := 0
		for passes == 0 || time.Since(t0) < warmBlock {
			got, err := s.warm(ctx)
			if err != nil {
				t.fail(int64(len(cold)))
				return nil, fmt.Errorf("warm pass: %w", err)
			}
			compareCells(t, got, cold, true)
			passes++
		}
		blocks[b] = time.Since(t0).Seconds() / float64(passes)
	}
	return blocks, nil
}

// timedRun measures the end-to-end metrics: set-up, a cold sweep and
// warm re-sweeps, repeated while the budget lasts, then set-up blocks.
func timedRun(ctx context.Context, wl *gridWorkload, p *pin, dir string, budget time.Duration) (report, error) {
	var t tally
	var setups, walls, cpus, reruns []float64
	var ref sweepOut
	start := time.Now()
	for it := 0; ; it++ {
		itStart := time.Now()
		base := filepath.Join(dir, fmt.Sprintf("sweep-%d", it))
		s, err := wl.open(base)
		if err != nil {
			return report{}, fmt.Errorf("set-up: %w", err)
		}
		out, wall, cpu, err := timeCold(ctx, s)
		if err != nil {
			t.fail(int64(wl.size()))
			fmt.Fprintln(os.Stderr, "perfbench: cold sweep:", err)
		} else {
			walls, cpus = append(walls, wall), append(cpus, cpu)
			if ref.cells == nil {
				ref = out
			}
			checkSweep(&t, out, ref.cells, p)
			r, err := rerun(ctx, s, out.cells, &t)
			if err != nil {
				fmt.Fprintln(os.Stderr, "perfbench:", err)
			} else {
				reruns = append(reruns, r...)
			}
		}
		rt := s.roundTrips()
		t.attempted += rt.attempted
		t.failed += rt.failed
		if err := s.close(); err != nil {
			return report{}, fmt.Errorf("teardown: %w", err)
		}
		if err := removeSession(base); err != nil {
			return report{}, err
		}
		// Start another repetition only if it should end within a tenth
		// past the budget.
		elapsed, last := time.Since(start), time.Since(itStart)
		if ctx.Err() != nil || elapsed+last > budget*11/10 {
			break
		}
	}
	if len(walls) == 0 || len(reruns) == 0 {
		return report{}, fmt.Errorf("no sweep completed")
	}
	peakRSS := peakRSSMB()
	for i := 0; i < setupBlocks; i++ {
		d, err := timeSetup(wl, filepath.Join(dir, "setup"))
		if err != nil {
			return report{}, err
		}
		setups = append(setups, d)
	}
	info := map[string]any{
		"sweeps": len(walls), "cells": len(ref.cells), "simulations": ref.sims,
		"events": ref.events, "chunks": ref.chunks, "digest": ref.cells.digest(),
		"sweep_s": walls, "cpu_s": cpus, "rerun_s": reruns, "setup_s": setups,
	}
	if !math.IsNaN(ref.win) {
		info["overall_win_pct"] = ref.win
	}
	printInfo("sweep", info)
	return report{
		Correct:   t.failed == 0 && t.attempted > 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics: map[string]metric{
			"setup_s":     {median(setups), "s"},
			"sweep_s":     {median(walls), "s"},
			"cpu_s":       {median(cpus), "s"},
			"peak_rss_mb": {peakRSS, "MB"},
			"rerun_s":     {median(reruns), "s"},
		},
	}, nil
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// memDelta is the allocation and GC activity between two MemStats reads.
func memDelta(a, b *runtime.MemStats) (allocMB float64, gcs uint32) {
	return float64(b.TotalAlloc-a.TotalAlloc) / 1e6, b.NumGC - a.NumGC
}
