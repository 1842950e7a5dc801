package serve

import (
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/rdcn-net/tdtcp/internal/trace"
)

// waitTerminal blocks until the job finishes or the test times out.
func waitTerminal(t *testing.T, j *Job) {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("job %s did not reach a terminal state", j.ID)
	}
}

// okRunner returns instantly with a distinguishable outcome.
func okRunner(req *Request) (*Outcome, error) {
	return &Outcome{Kind: req.Spec.Kind, Variant: req.Spec.Variant,
		GoodputGbps: float64(req.Spec.Seed)}, nil
}

// slowRunner blocks until cancelled, like a simulation honoring the seam.
func slowRunner(req *Request) (*Outcome, error) {
	for !req.Cancelled() {
		time.Sleep(time.Millisecond)
	}
	return nil, errStopped
}

// gateRunner blocks jobs on a channel so tests control exactly when workers
// free up.
func gateRunner(gate chan struct{}) Runner {
	return func(req *Request) (*Outcome, error) {
		select {
		case <-gate:
			return okRunner(req)
		case <-time.After(30 * time.Second):
			return nil, errors.New("gate never opened")
		}
	}
}

func shutdownOrFail(t *testing.T, s *Server) {
	t.Helper()
	if err := s.Shutdown(10 * time.Second); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func TestSubmitInvalidSpecIsRejected(t *testing.T) {
	s := New(Config{Runner: okRunner})
	defer shutdownOrFail(t, s)
	for _, spec := range []*Spec{
		{Kind: "nope"},
		{Variant: "quic"},
		{Kind: KindWorkload, Workload: "uniformly-random"},
		{Kind: KindWorkload, Load: 1.5},
		{Kind: KindRun, Schedule: "gibberish"},
		{Fault: "gibberish"},
		{Kind: KindRun, Hosts: 3},
		{Kind: KindRun, Racks: 4, Variant: "mptcp2f"},
		{Seed: -0, Flows: -1},
		{Kind: KindWorkload, Fault: "nloss=0.1"},
		{Kind: KindWorkload, FaultSeed: 3},
		{Kind: KindWorkload, Invariants: true},
	} {
		if _, _, err := s.Submit(spec); err == nil {
			t.Errorf("spec %+v was admitted, want validation error", spec)
		}
	}
	if got := s.Metrics().Counter("serve.rejected_invalid"); got != 12 {
		t.Fatalf("serve.rejected_invalid = %d, want 12", got)
	}
}

// TestNormalizeIsIdempotent: a normalized spec is what job views hand back,
// so resubmitting one must be accepted and land on the same cache key.
func TestNormalizeIsIdempotent(t *testing.T) {
	for _, spec := range []*Spec{
		{},
		{Variant: "cubic", Fault: "drop=0.01,nloss=0.1", Invariants: true},
		{Kind: KindWorkload},
		{Variant: "dctcp", Racks: 4, Flows: 8},
	} {
		once, err := spec.Normalize()
		if err != nil {
			t.Fatalf("%+v: %v", spec, err)
		}
		twice, err := once.Normalize()
		if err != nil {
			t.Fatalf("normalized %+v rejected: %v", once, err)
		}
		if once.Key() != twice.Key() {
			t.Errorf("%+v: key changed on re-normalization", spec)
		}
	}
}

func TestCacheKeyIgnoresDeadlineAndDefaults(t *testing.T) {
	a, err := (&Spec{}).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	b, err := (&Spec{Variant: "tdtcp", Flows: 4, DeadlineMS: 5000}).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if a.Key() != b.Key() {
		t.Fatal("explicit defaults + deadline produced a different cache key")
	}
	c, err := (&Spec{Seed: 2}).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if a.Key() == c.Key() {
		t.Fatal("different seeds share a cache key")
	}
}

func TestSingleFlightAndCache(t *testing.T) {
	gate := make(chan struct{})
	s := New(Config{Workers: 1, QueueDepth: 4, Runner: gateRunner(gate)})
	defer shutdownOrFail(t, s)

	spec := &Spec{Seed: 42}
	j1, disp, err := s.Submit(spec)
	if err != nil || disp != DispAccepted {
		t.Fatalf("first submit: disp=%q err=%v", disp, err)
	}
	j2, disp, err := s.Submit(spec)
	if err != nil || disp != DispJoined {
		t.Fatalf("identical in-flight submit: disp=%q err=%v", disp, err)
	}
	if j1 != j2 {
		t.Fatal("joined submit returned a different job")
	}

	close(gate)
	waitTerminal(t, j1)
	j3, disp, err := s.Submit(spec)
	if err != nil || disp != DispCacheHit {
		t.Fatalf("post-completion submit: disp=%q err=%v", disp, err)
	}
	if j3 != j1 {
		t.Fatal("cache hit returned a different job")
	}
	v := s.View(j3, true)
	if v.State != StateDone || v.Outcome == nil || v.Outcome.GoodputGbps != 42 {
		t.Fatalf("cached view: %+v", v)
	}

	m := s.Metrics()
	if hits, joined := m.Counter("serve.cache_hits"), m.Counter("serve.dedup_joined"); hits != 1 || joined != 1 {
		t.Fatalf("cache_hits=%d dedup_joined=%d, want 1 and 1", hits, joined)
	}
}

func TestQueueFullRejects(t *testing.T) {
	gate := make(chan struct{})
	s := New(Config{Workers: 1, QueueDepth: 1, Runner: gateRunner(gate)})
	defer shutdownOrFail(t, s)

	// Worker 1 picks up seed 1; seed 2 sits in the queue slot. Give the
	// worker a moment to drain the first job from the buffer.
	j1, _, err := s.Submit(&Spec{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if v := s.View(j1, false); v.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(time.Millisecond)
	}
	if _, _, err := s.Submit(&Spec{Seed: 2}); err != nil {
		t.Fatalf("queue-slot submit rejected: %v", err)
	}
	_, _, err = s.Submit(&Spec{Seed: 3})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-capacity submit returned %v, want ErrQueueFull", err)
	}
	if got := s.Metrics().Counter("serve.rejected_queue_full"); got != 1 {
		t.Fatalf("serve.rejected_queue_full = %d, want 1", got)
	}
	close(gate)
}

func TestPanicIsolationKeepsSlotAlive(t *testing.T) {
	s := New(Config{Workers: 1, Runner: func(req *Request) (*Outcome, error) {
		if req.Spec.Seed == 666 {
			// Record one event the way a run would — through a tracer with
			// the flight ring attached — then crash.
			tr := (*trace.Tracer)(nil).WithFlight(req.Flight)
			tr.Emit(trace.CatFault, 1, "doomed", 0, -1, 666, 0, "")
			panic("injected crash")
		}
		return okRunner(req)
	}})
	defer shutdownOrFail(t, s)

	bad, _, err := s.Submit(&Spec{Seed: 666})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, bad)
	v := s.View(bad, true)
	if v.State != StateFailed {
		t.Fatalf("panicked job state = %q, want failed", v.State)
	}
	if v.Panic != "injected crash" || !strings.Contains(v.PanicStack, "serve") {
		t.Fatalf("panic capture missing: panic=%q stackLen=%d", v.Panic, len(v.PanicStack))
	}
	if len(v.PanicFlight) == 0 || v.PanicFlight[len(v.PanicFlight)-1].Name != "doomed" {
		t.Fatalf("flight snapshot missing the pre-panic event: %+v", v.PanicFlight)
	}

	// The single worker must survive the panic and keep serving.
	good, _, err := s.Submit(&Spec{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, good)
	if v := s.View(good, true); v.State != StateDone {
		t.Fatalf("post-panic job state = %q, want done (worker slot lost?)", v.State)
	}
	if got := s.Metrics().Counter("serve.panics"); got != 1 {
		t.Fatalf("serve.panics = %d, want 1", got)
	}
}

// TestFailedJobRunsOnce: a run is a pure function of its spec, so a failed
// job is never run again.
func TestFailedJobRunsOnce(t *testing.T) {
	var calls atomic.Int64
	s := New(Config{Workers: 1, Runner: func(req *Request) (*Outcome, error) {
		calls.Add(1)
		return nil, errors.New("deterministic failure")
	}})
	defer shutdownOrFail(t, s)

	j, _, err := s.Submit(&Spec{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j)
	if v := s.View(j, false); v.State != StateFailed {
		t.Fatalf("state=%q, want failed", v.State)
	}
	if calls.Load() != 1 {
		t.Fatalf("runner called %d times, want 1", calls.Load())
	}
}

func TestDeadlineExceededFailsJob(t *testing.T) {
	s := New(Config{Workers: 1, Runner: slowRunner})
	defer shutdownOrFail(t, s)

	j, _, err := s.Submit(&Spec{Seed: 9, DeadlineMS: 20})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j)
	v := s.View(j, false)
	if v.State != StateFailed || !strings.Contains(v.Error, "deadline exceeded") {
		t.Fatalf("state=%q err=%q, want deadline failure", v.State, v.Error)
	}
	if got := s.Metrics().Counter("serve.deadlines_exceeded"); got != 1 {
		t.Fatalf("serve.deadlines_exceeded = %d, want 1", got)
	}
}

func TestCancelRunningJob(t *testing.T) {
	s := New(Config{Workers: 1, Runner: slowRunner})
	defer shutdownOrFail(t, s)

	j, _, err := s.Submit(&Spec{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.View(j, false).State != StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(time.Millisecond)
	}
	if !s.Cancel(j.ID) {
		t.Fatal("Cancel returned false for a running job")
	}
	waitTerminal(t, j)
	if v := s.View(j, false); v.State != StateCancelled {
		t.Fatalf("state = %q, want cancelled", v.State)
	}
	if s.Cancel(j.ID) {
		t.Fatal("Cancel of a terminal job returned true")
	}
}

func TestCancelQueuedJobNeverRuns(t *testing.T) {
	gate := make(chan struct{})
	var ran atomic.Int64
	s := New(Config{Workers: 1, QueueDepth: 2, Runner: func(req *Request) (*Outcome, error) {
		ran.Add(1)
		return gateRunner(gate)(req)
	}})
	defer shutdownOrFail(t, s)

	blocker, _, err := s.Submit(&Spec{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	queued, _, err := s.Submit(&Spec{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Cancel(queued.ID) {
		t.Fatal("Cancel returned false for a queued job")
	}
	close(gate)
	waitTerminal(t, blocker)
	waitTerminal(t, queued)
	if v := s.View(queued, false); v.State != StateCancelled {
		t.Fatalf("queued-then-cancelled job state = %q", v.State)
	}
	if ran.Load() != 1 {
		t.Fatalf("runner ran %d times; the cancelled queued job must never run", ran.Load())
	}
}

// TestShutdownDrainNoGoroutineLeak is the drain half of the robustness
// contract: after Shutdown returns, every worker goroutine is gone.
func TestShutdownDrainNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New(Config{Workers: 4, Runner: okRunner})
	var jobs []*Job
	for i := 0; i < 8; i++ {
		j, _, err := s.Submit(&Spec{Seed: int64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	if err := s.Shutdown(10 * time.Second); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	for _, j := range jobs {
		if v := s.View(j, false); !terminal(v.State) {
			t.Fatalf("job %s state %q after drain", j.ID, v.State)
		}
	}
	if _, _, err := s.Submit(&Spec{Seed: 99}); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-shutdown submit returned %v, want ErrDraining", err)
	}
	// Goroutine counts wobble (GC, timer goroutines); poll until we are back
	// to the starting neighborhood.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after drain", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestShutdownCancelsStuckJobs: jobs that never finish on their own are
// cancelled at drain halftime and the shutdown still completes in budget.
func TestShutdownCancelsStuckJobs(t *testing.T) {
	s := New(Config{Workers: 2, Runner: slowRunner})
	j, _, err := s.Submit(&Spec{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := s.Shutdown(2 * time.Second); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("shutdown took %v, budget was 2s", d)
	}
	if v := s.View(j, false); v.State != StateCancelled {
		t.Fatalf("stuck job state = %q, want cancelled", v.State)
	}
}

// TestTortureLifecycle is the acceptance-criteria torture test: concurrent
// clients submitting a mix of valid, identical, deadline-exceeding and
// panic-inducing jobs, then SIGTERM-style drain. Every accepted job must
// reach a terminal state within the drain deadline and the books must
// balance.
func TestTortureLifecycle(t *testing.T) {
	s := New(Config{
		Workers: 4, QueueDepth: 64,
		Runner: func(req *Request) (*Outcome, error) {
			switch {
			case req.Spec.Seed%5 == 0: // hang until deadline/cancel
				for !req.Cancelled() {
					time.Sleep(time.Millisecond)
				}
				return nil, errStopped
			case req.Spec.Seed%7 == 0:
				panic(fmt.Sprintf("torture panic seed=%d", req.Spec.Seed))
			default:
				time.Sleep(time.Duration(req.Spec.Seed%3) * time.Millisecond)
				return okRunner(req)
			}
		},
	})

	const clients, perClient = 8, 20
	var (
		mu       sync.Mutex
		accepted []*Job
		joined   int64
		hits     int64
		rejected int64
	)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				// Seeds deliberately collide across clients: i repeats in
				// every client, so dedup and caching must kick in.
				spec := &Spec{Seed: int64(i + 1), DeadlineMS: 200}
				j, disp, err := s.Submit(spec)
				mu.Lock()
				switch {
				case errors.Is(err, ErrQueueFull):
					rejected++
				case err != nil:
					t.Errorf("unexpected submit error: %v", err)
				case disp == DispJoined:
					joined++
				case disp == DispCacheHit:
					hits++
				default:
					accepted = append(accepted, j)
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()

	start := time.Now()
	if err := s.Shutdown(15 * time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
	drainTook := time.Since(start)

	states := map[State]int{}
	keys := map[string]bool{}
	for _, j := range accepted {
		select {
		case <-j.Done():
		default:
			t.Fatalf("job %s not terminal after drain", j.ID)
		}
		v := s.View(j, false)
		states[v.State]++
		// Failed/cancelled jobs are not cached, so their key may be accepted
		// again later. But two DONE jobs with one key would mean the cache or
		// single-flight let a duplicate run to completion.
		if v.State == StateDone {
			if keys[v.Key] {
				t.Fatalf("two done jobs share key %s — cache/single-flight broke", v.Key)
			}
			keys[v.Key] = true
		}
	}
	m := s.Metrics()
	submitted := int64(clients * perClient)
	if got := m.Counter("serve.submitted"); got != submitted {
		t.Fatalf("serve.submitted = %d, want %d", got, submitted)
	}
	if acc := m.Counter("serve.accepted"); acc != int64(len(accepted)) {
		t.Fatalf("serve.accepted = %d, accepted jobs = %d", acc, len(accepted))
	}
	if acc, h, jn, rej := int64(len(accepted)), m.Counter("serve.cache_hits"),
		m.Counter("serve.dedup_joined"), m.Counter("serve.rejected_queue_full"); acc+h+jn+rej != submitted {
		t.Fatalf("dispositions do not sum: accepted=%d hits=%d joined=%d rejected=%d submitted=%d",
			acc, h, jn, rej, submitted)
	}
	if hits != m.Counter("serve.cache_hits") || joined != m.Counter("serve.dedup_joined") {
		t.Fatalf("client-side counts (hits=%d joined=%d) disagree with metrics (%d, %d)",
			hits, joined, m.Counter("serve.cache_hits"), m.Counter("serve.dedup_joined"))
	}
	total := m.Counter("serve.jobs_done") + m.Counter("serve.jobs_failed") + m.Counter("serve.jobs_cancelled")
	if total != int64(len(accepted)) {
		t.Fatalf("terminal metric sum %d != accepted %d (states: %v)", total, len(accepted), states)
	}
	if states[StateDone] == 0 || states[StateFailed] == 0 {
		t.Fatalf("torture mix did not exercise both success and failure: %v", states)
	}
	t.Logf("torture: %d accepted (%v), %d joined, %d cache hits, %d rejected, drain %v",
		len(accepted), states, joined, hits, rejected, drainTook)
}

// TestJobTableForgetsOldJobs: the job table is bounded by the cache, not by
// the jobs ever submitted. After 4·CacheCap distinct jobs have finished —
// done, failed and cancelled mixed — it holds at most 2·CacheCap jobs beyond
// the workers and the queue, the newest done jobs still hit the cache, and
// the oldest job's id is unknown (404).
func TestJobTableForgetsOldJobs(t *testing.T) {
	const cacheCap = 8
	cfg := Config{Workers: 1, QueueDepth: 4, CacheCap: cacheCap, Runner: func(req *Request) (*Outcome, error) {
		switch req.Spec.Seed % 3 {
		case 0:
			return nil, errors.New("stub failure")
		case 1:
			return okRunner(req)
		default:
			return slowRunner(req)
		}
	}}
	s, ts := httpServer(t, cfg)
	var first *Job
	var done []*Job
	for seed := int64(1); seed <= 4*cacheCap; seed++ {
		j, disp, err := s.Submit(&Spec{Seed: seed})
		if err != nil || disp != DispAccepted {
			t.Fatalf("seed %d: disp=%q err=%v", seed, disp, err)
		}
		if seed%3 == 2 {
			s.Cancel(j.ID)
		}
		waitTerminal(t, j)
		if first == nil {
			first = j
		}
		if v := s.View(j, false); v.State == StateDone {
			done = append(done, j)
		}
	}
	s.mu.Lock()
	held := len(s.jobs)
	s.mu.Unlock()
	if bound := 2*cacheCap + cfg.Workers + cfg.QueueDepth; held > bound {
		t.Errorf("the job table holds %d jobs after %d finished, want at most %d", held, 4*cacheCap, bound)
	}
	for _, j := range done[len(done)-cacheCap:] {
		if got, disp, err := s.Submit(j.Spec); err != nil || disp != DispCacheHit || got != j {
			t.Errorf("resubmitting done job %s: disp=%q err=%v", j.ID, disp, err)
		}
	}
	if _, ok := s.Job(first.ID); ok {
		t.Errorf("job %s is still held after %d newer jobs finished", first.ID, 4*cacheCap-1)
	}
	if code, _ := doJSON(t, http.MethodGet, ts.URL+"/jobs/"+first.ID, ""); code != http.StatusNotFound {
		t.Errorf("GET /jobs/%s: %d, want 404", first.ID, code)
	}
}
