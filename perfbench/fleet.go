package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"rumr/internal/experiment"
	"rumr/internal/metrics"
	"rumr/internal/obs/span"
	"rumr/internal/shard"
)

// Worker polling: short enough that the worker picks up a sweep within
// milliseconds of the coordinator starting it, long enough that idle
// polling between sweeps costs next to nothing.
const (
	pollBackoff    = 5 * time.Millisecond
	pollMaxBackoff = 50 * time.Millisecond
	joinTimeout    = 10 * time.Second
)

// fleetSession is one coordinator and one worker (one simulation at a
// time) joined over loopback HTTP — rumrsweep -serve -cache with one
// rumrsweep -join -workers 1, in one process. The sweep keeps no
// checkpoint: its synced append per cell made the sweep's wall time follow
// the disk (cold sweeps of one run slowed from 3.5 s to 5.3 s, and ran
// 4-12 s across runs) rather than the code. Checkpoint appends are timed
// in the traced run's persistence pass, and table2 keeps a checkpoint.
type fleetSession struct {
	grid  experiment.Grid
	job   shard.SweepJob
	cache string

	coord     *shard.Coordinator
	srv       *http.Server
	served    chan error
	rt        *roundTripper
	met       *metrics.Collector
	stopWork  context.CancelFunc
	workerErr chan error
}

func openFleet(g experiment.Grid, cache string) (*fleetSession, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &fleetSession{
		grid: g,
		job: shard.SweepJob{
			Grid: g, Algorithms: algorithmNames(experiment.StandardAlgorithms()), Model: experiment.NormalError,
		},
		cache:     cache,
		coord:     shard.NewCoordinator(),
		served:    make(chan error, 1),
		rt:        newRoundTripper(),
		met:       metrics.New(),
		workerErr: make(chan error, 1),
	}
	s.srv = &http.Server{Handler: s.coord.Handler()}
	go func() { s.served <- s.srv.Serve(ln) }()
	w := &shard.Worker{
		Base:       "http://" + ln.Addr().String(),
		ID:         "perfbench-worker",
		Procs:      1,
		Client:     &http.Client{Transport: s.rt, Timeout: 30 * time.Second},
		Metrics:    s.met,
		Backoff:    pollBackoff,
		MaxBackoff: pollMaxBackoff,
	}
	var ctx context.Context
	ctx, s.stopWork = context.WithCancel(context.Background())
	go func() { s.workerErr <- w.Run(ctx) }()
	// The worker has joined once its first lease poll has been answered.
	select {
	case <-s.rt.first:
		return s, nil
	case <-time.After(joinTimeout):
		err = errors.New("worker did not join the coordinator")
	case err = <-s.workerErr:
		s.workerErr <- err
		err = fmt.Errorf("worker exited before joining: %v", err)
	}
	return nil, errors.Join(err, s.close())
}

func (s *fleetSession) cold(ctx context.Context) (sweepOut, error) {
	res, err := s.coord.Run(ctx, s.job, shard.RunOptions{CachePath: s.cache})
	if err != nil {
		return sweepOut{}, err
	}
	snap := s.met.Snapshot()
	return sweepOut{
		cells: res.Mean, sims: snap.Simulations, events: snap.Events, chunks: snap.Chunks,
		win: experiment.OverallWinPercent(res, 0),
	}, nil
}

// warm re-runs the sweep on the coordinator with the cache alone: every
// configuration is restored, none is leased.
func (s *fleetSession) warm(ctx context.Context) (cellSet, error) {
	res, err := s.coord.Run(ctx, s.job, shard.RunOptions{CachePath: s.cache})
	if err != nil {
		return nil, err
	}
	return res.Mean, nil
}

func (s *fleetSession) roundTrips() tally { return s.rt.tally() }

// shardStats reads the shard layer's figures for the cold sweep that took
// wall seconds. The worker ships its last spans on the lease poll after
// the sweep ends, so it waits for that poll; call it before warm, which
// starts a new trace.
func (s *fleetSession) shardStats(wall float64) (shardFigures, error) {
	if !s.rt.awaitLeasePoll(s.rt.leasePolls(), joinTimeout) {
		return shardFigures{}, errors.New("worker did not poll after the sweep")
	}
	var f shardFigures
	var leases []float64
	computeUS := int64(0)
	for _, sp := range s.coord.Spans() {
		switch {
		case sp.Kind == span.KindLease && sp.Proc == span.CoordinatorProc:
			leases = append(leases, float64(sp.EndUS-sp.StartUS)/1e3)
		case sp.Kind == span.KindCompute:
			computeUS += sp.EndUS - sp.StartUS
		}
	}
	f.leases = len(leases)
	f.leaseP50, f.leaseP95 = quantile(leases, 0.5), quantile(leases, 0.95)
	for _, ws := range s.coord.Status().Workers {
		f.reissued += ws.ExpiredLeases
	}
	f.idleFrac = math.Max(0, 1-float64(computeUS)/1e6/wall)
	f.dials = s.rt.dialCount()
	return f, nil
}

type shardFigures struct {
	leases             int
	leaseP50, leaseP95 float64 // ms
	reissued           int64
	idleFrac           float64
	dials              int64
}

// close shuts the coordinator (workers see 410 Gone and exit), then the
// HTTP server.
func (s *fleetSession) close() error {
	s.coord.Close()
	var errs []error
	select {
	case err := <-s.workerErr:
		errs = append(errs, err)
	case <-time.After(joinTimeout):
		s.stopWork()
		errs = append(errs, errors.New("worker did not stop"), <-s.workerErr)
	}
	s.stopWork()
	ctx, cancel := context.WithTimeout(context.Background(), joinTimeout)
	defer cancel()
	errs = append(errs, s.srv.Shutdown(ctx))
	if err := <-s.served; !errors.Is(err, http.ErrServerClosed) {
		errs = append(errs, err)
	}
	s.rt.base.CloseIdleConnections()
	return errors.Join(errs...)
}

// roundTripper checks and counts the worker's HTTP round trips and holds
// it to one connection to the coordinator.
type roundTripper struct {
	base  *http.Transport
	first chan struct{}

	mu       sync.Mutex
	once     sync.Once
	t        tally
	polls    int
	pollCond *sync.Cond
	dials    int64
}

func newRoundTripper() *roundTripper {
	rt := &roundTripper{first: make(chan struct{})}
	rt.pollCond = sync.NewCond(&rt.mu)
	var d net.Dialer
	rt.base = &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			rt.mu.Lock()
			rt.dials++
			rt.mu.Unlock()
			return d.DialContext(ctx, network, addr)
		},
	}
	return rt
}

// expectedStatus lists the answers that are part of the protocol: on a
// lease poll 503 is "no work yet" and 410 "coordinator shut down"; a
// heartbeat racing the lease's completion gets 404. Any other answer than
// 200 is a failed round trip.
func expectedStatus(path string, code int) bool {
	switch {
	case code == http.StatusOK:
		return true
	case strings.HasSuffix(path, "/lease"):
		return code == http.StatusServiceUnavailable || code == http.StatusGone
	case strings.HasSuffix(path, "/heartbeat"):
		return code == http.StatusNotFound || code == http.StatusGone
	}
	return false
}

func (rt *roundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := rt.base.RoundTrip(req)
	ok := err == nil && expectedStatus(req.URL.Path, resp.StatusCode)
	rt.mu.Lock()
	rt.t.check(ok)
	if strings.HasSuffix(req.URL.Path, "/lease") {
		rt.polls++
		rt.pollCond.Broadcast()
	}
	rt.mu.Unlock()
	if ok {
		rt.once.Do(func() { close(rt.first) })
	}
	return resp, err
}

func (rt *roundTripper) tally() tally {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.t
}

func (rt *roundTripper) dialCount() int64 {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.dials
}

func (rt *roundTripper) leasePolls() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.polls
}

// awaitLeasePoll waits until more than n lease polls have completed.
func (rt *roundTripper) awaitLeasePoll(n int, timeout time.Duration) bool {
	timer := time.AfterFunc(timeout, func() {
		rt.mu.Lock()
		rt.pollCond.Broadcast()
		rt.mu.Unlock()
	})
	defer timer.Stop()
	deadline := time.Now().Add(timeout)
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for rt.polls <= n && time.Now().Before(deadline) {
		rt.pollCond.Wait()
	}
	return rt.polls > n
}
