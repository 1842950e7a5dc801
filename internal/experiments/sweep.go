package experiments

import "sync"

// This file is the one place in the simulation stack where goroutines are
// legal: every Run owns its loop, RNG, network and flows and shares nothing,
// so independent runs are embarrassingly parallel. The deterministic packages
// (internal/{sim,netem,rdcn,tcp,core,cc,fault,workload,stats}) stay
// single-threaded and tdlint enforces that; this package sits outside that
// boundary.

// SweepResult pairs one sweep cell's configuration with its outcome.
type SweepResult struct {
	Cfg RunConfig
	Res *Result
	Err error
}

// Matrix expands base over the cross product of variants and seeds, in
// variant-major order. The result is a ready-made Sweep input.
func Matrix(base RunConfig, variants []Variant, seeds []int64) []RunConfig {
	cfgs := make([]RunConfig, 0, len(variants)*len(seeds))
	for _, v := range variants {
		for _, s := range seeds {
			c := base
			c.Variant = v
			c.Seed = s
			cfgs = append(cfgs, c)
		}
	}
	return cfgs
}

// SweepObserver receives worker-lifecycle callbacks from an observed sweep:
// CellStart when a worker picks up input cell (the sequential path is worker
// 0), CellDone when the run returns. Both may be called from any worker
// goroutine concurrently; obs.SweepMeter is the standard implementation.
type SweepObserver interface {
	CellStart(worker, cell int)
	CellDone(worker, cell int, err error)
}

// Sweep executes every configuration and returns results indexed by input
// position, so the output order is deterministic regardless of which run
// finishes first. workers bounds how many simulations run concurrently;
// workers <= 1 runs them sequentially on the calling goroutine. Because runs
// share no state, the parallel and sequential paths produce identical
// results for identical inputs (the sweep parity test enforces this).
//
// Configurations must not share a Tracer or Metrics registry when workers
// exceeds 1 — those sinks are not synchronized.
func Sweep(cfgs []RunConfig, workers int) []SweepResult {
	return SweepWithObserver(cfgs, workers, nil)
}

// SweepWithObserver is Sweep with per-cell progress callbacks (nil obs =
// plain Sweep). Observation cannot change results: the observer sees indexes
// and errors only, never the configurations or measurements.
func SweepWithObserver(cfgs []RunConfig, workers int, obs SweepObserver) []SweepResult {
	out := make([]SweepResult, len(cfgs))
	sweepCells(len(cfgs), workers, obs, func(i int) error {
		res, err := Run(cfgs[i])
		out[i] = SweepResult{Cfg: cfgs[i], Res: res, Err: err}
		return err
	})
	return out
}

// sweepCells is the worker pool under both sweeps: it calls cell(i) once for
// every i in [0,n), on the calling goroutine when workers <= 1 and otherwise
// on min(workers, n) goroutines pulling indexes from a channel, bracketing
// each call with the observer's callbacks. cell writes its own result slot,
// so no two calls share state.
func sweepCells(n, workers int, obs SweepObserver, cell func(i int) error) {
	runCell := func(worker, i int) {
		if obs != nil {
			obs.CellStart(worker, i)
		}
		err := cell(i)
		if obs != nil {
			obs.CellDone(worker, i, err)
		}
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			runCell(0, i)
		}
		return
	}
	if workers > n {
		workers = n
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := range idx {
				runCell(worker, i)
			}
		}(w)
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}
