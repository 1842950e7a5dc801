// Package serve is the fault-tolerant scenario service behind cmd/tdserve:
// a bounded worker pool running experiments-package scenarios submitted as
// JSON specs, with per-job deadlines, panic isolation, graceful drain, and a
// deterministic result cache.
//
// The package sits OUTSIDE the determinism boundary (like internal/obs): it
// uses wall clocks and goroutines freely. Determinism is what it serves, not
// what it is — because every run is a pure function of its normalized spec,
// results are cached by (canonical spec hash, seed) and concurrent
// submissions of the same spec are deduplicated onto one run. For the same
// reason a failed job is never retried: it would fail again.
// Simulation packages must never import this one (enforced by tdlint's
// determinism boundary check).
package serve

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"github.com/rdcn-net/tdtcp/internal/experiments"
	"github.com/rdcn-net/tdtcp/internal/trace"
)

// State is a job lifecycle state. It is a defined type so switches over it
// are checkable by tdlint's exhaustive analysis: adding a state without
// updating every switch is a lint finding, not a silent fall-through.
type State string

// Job states. Terminal states are StateDone, StateFailed, StateCancelled.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Submission dispositions: what Submit did with the spec.
const (
	DispAccepted = "accepted"  // new job queued
	DispJoined   = "joined"    // deduplicated onto an in-flight job (single-flight)
	DispCacheHit = "cache_hit" // served from the deterministic result cache
)

// Sentinel errors surfaced by Submit.
var (
	// ErrQueueFull means admission control rejected the spec: every worker
	// is busy and the bounded queue is at capacity. The service never
	// buffers unboundedly; clients retry with backoff (HTTP 429).
	ErrQueueFull = errors.New("serve: queue full")
	// ErrDraining means the server is shutting down and accepts no new work
	// (HTTP 503).
	ErrDraining = errors.New("serve: draining")
)

// Config parameterizes a Server. The zero value is usable: every field has
// a sensible default.
type Config struct {
	// Workers is the worker-pool size (default 2). This is the hard bound on
	// concurrent simulations.
	Workers int
	// QueueDepth bounds jobs admitted but not yet running (default 16).
	// Admission beyond Workers+QueueDepth fails with ErrQueueFull.
	QueueDepth int
	// DefaultDeadline caps a job's wall-clock run time when its spec does
	// not set deadline_ms (default 60s).
	DefaultDeadline time.Duration
	// CacheCap bounds the result cache in entries, evicted FIFO (default
	// 128; negative disables caching). It bounds the job table too (see
	// retainLocked).
	CacheCap int
	// Metrics receives the serve.* counters and histograms (one is created
	// if nil).
	Metrics *trace.Registry
	// Runner executes normalized specs (default DefaultRunner). Tests
	// substitute stubs to exercise the failure machinery.
	Runner Runner
}

const defaultCacheCap = 128

func (c *Config) fillDefaults() {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 60 * time.Second
	}
	if c.CacheCap == 0 {
		c.CacheCap = defaultCacheCap
	}
	if c.Metrics == nil {
		c.Metrics = trace.NewRegistry()
	}
	if c.Runner == nil {
		c.Runner = DefaultRunner
	}
}

// Job is one submitted scenario and its lifecycle. All mutable fields are
// guarded by the owning Server's mutex; cancelled is atomic because the
// running simulation polls it between events.
type Job struct {
	ID   string
	Key  string
	Spec *Spec

	state   State
	err     error
	outcome *Outcome
	// panicValue/panicStack/panicFlight capture a crashed run: the
	// recovered value, the goroutine stack, and the flight recorder's last
	// events at the moment of the panic.
	panicValue  string
	panicStack  string
	panicFlight []trace.Event

	// hitReply is the POST /jobs reply a cache hit on this job gets, encoded
	// at the first hit: the view of a terminal job no longer changes. Held
	// only while the job is in the result cache.
	hitReply []byte
	// aged: no longer among Server.finished, so held only while cached.
	aged bool

	cancelled atomic.Bool
	// done closes when the job reaches a terminal state.
	done chan struct{}

	submitted time.Time
	started   time.Time
	finished  time.Time
}

// Cancelled reports whether cancellation was requested (it does not imply
// the job has stopped yet).
func (j *Job) Cancelled() bool { return j.cancelled.Load() }

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// JobView is the JSON-ready snapshot of a job's state.
type JobView struct {
	ID        string     `json:"id"`
	Key       string     `json:"key"`
	State     State      `json:"state"`
	Spec      *Spec      `json:"spec"`
	Error     string     `json:"error,omitempty"`
	Panic     string     `json:"panic,omitempty"`
	Submitted time.Time  `json:"submitted"`
	Started   *time.Time `json:"started,omitempty"`
	Finished  *time.Time `json:"finished,omitempty"`
	Outcome   *Outcome   `json:"outcome,omitempty"`
	// PanicStack and PanicFlight are included only on the result view of a
	// crashed job: the stack of the panicking run and the flight
	// recorder's last events before the crash.
	PanicStack  string        `json:"panic_stack,omitempty"`
	PanicFlight []trace.Event `json:"panic_flight,omitempty"`
}

// Server is the scenario service: a bounded worker pool with admission
// control, deadlines, panic isolation, single-flight deduplication
// and a deterministic result cache.
type Server struct {
	cfg Config

	mu        sync.Mutex
	jobs      map[string]*Job // by ID: queued, running, cached or in finished
	inflight  map[string]*Job // by Key: queued or running (single-flight)
	cache     map[string]*Job // by Key: terminal done jobs
	cacheFifo []string
	finished  []*Job // the last jobs to finish, oldest first (retainLocked)
	nextID    uint64
	draining  bool

	queue chan *Job
	wg    sync.WaitGroup
	// hardStop flips when Shutdown escalates: every running job's stop seam
	// reads it, so simulations abandon at the next poll.
	hardStop atomic.Bool
}

// New builds and starts a Server: its workers are running on return.
func New(cfg Config) *Server {
	cfg.fillDefaults()
	s := &Server{
		cfg:      cfg,
		jobs:     make(map[string]*Job),
		inflight: make(map[string]*Job),
		cache:    make(map[string]*Job),
		queue:    make(chan *Job, cfg.QueueDepth),
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Metrics exposes the server's registry (serve.* keys).
func (s *Server) Metrics() *trace.Registry { return s.cfg.Metrics }

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Submit normalizes and admits one spec. The returned disposition says what
// happened: DispAccepted (new job queued), DispJoined (deduplicated onto an
// identical in-flight job), or DispCacheHit (previously completed — the
// returned job is already done). Errors: spec validation errors,
// ErrQueueFull, ErrDraining.
func (s *Server) Submit(spec *Spec) (*Job, string, error) {
	m := s.cfg.Metrics
	m.Add("serve.submitted", 1)
	norm, err := spec.Normalize()
	if err != nil {
		m.Add("serve.rejected_invalid", 1)
		return nil, "", err
	}
	key := norm.Key()

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		m.Add("serve.rejected_draining", 1)
		return nil, "", ErrDraining
	}
	if j := s.cache[key]; j != nil {
		m.Add("serve.cache_hits", 1)
		return j, DispCacheHit, nil
	}
	if j := s.inflight[key]; j != nil {
		m.Add("serve.dedup_joined", 1)
		return j, DispJoined, nil
	}
	s.nextID++
	j := &Job{
		ID:        fmt.Sprintf("j-%06d", s.nextID),
		Key:       key,
		Spec:      norm,
		state:     StateQueued,
		done:      make(chan struct{}),
		submitted: time.Now(),
	}
	// Nonblocking send: the channel buffer IS the admission bound. Sending
	// under the mutex is safe because the buffer send cannot block, and it
	// keeps Submit/Shutdown ordered — the queue is only closed while
	// draining is set, and draining was checked above under this lock.
	select {
	case s.queue <- j:
	default:
		m.Add("serve.rejected_queue_full", 1)
		return nil, "", ErrQueueFull
	}
	s.jobs[j.ID] = j
	s.inflight[key] = j
	m.Add("serve.accepted", 1)
	return j, DispAccepted, nil
}

// Job looks a job up by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Cancel requests cooperative cancellation of a job. Queued jobs are
// finalized as cancelled immediately; running jobs stop at the next seam
// poll. Returns false if the job is unknown or already terminal.
func (s *Server) Cancel(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok || terminal(j.state) {
		return false
	}
	j.cancelled.Store(true)
	return true
}

// CancelAll requests cancellation of every non-terminal job.
func (s *Server) CancelAll() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, j := range s.jobs {
		if !terminal(j.state) {
			j.cancelled.Store(true)
		}
	}
}

// View snapshots a job for JSON rendering. withResult adds the outcome and,
// for crashed jobs, the panic stack and flight-recorder snapshot.
func (s *Server) View(j *Job, withResult bool) *JobView {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := &JobView{
		ID:        j.ID,
		Key:       j.Key,
		State:     j.state,
		Spec:      j.Spec,
		Panic:     j.panicValue,
		Submitted: j.submitted,
	}
	if j.err != nil {
		v.Error = j.err.Error()
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
	}
	if withResult {
		v.Outcome = j.outcome
		v.PanicStack = j.panicStack
		v.PanicFlight = j.panicFlight
	}
	return v
}

// Jobs snapshots every job the server still holds, newest first.
func (s *Server) Jobs() []*JobView {
	s.mu.Lock()
	ids := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		ids = append(ids, j)
	}
	s.mu.Unlock()
	// Snapshot then sort outside the lock; IDs are zero-padded so string
	// order is submission order.
	views := make([]*JobView, 0, len(ids))
	for _, j := range ids {
		views = append(views, s.View(j, false))
	}
	sortViews(views)
	return views
}

func sortViews(v []*JobView) {
	// Insertion sort, descending by ID: job lists are small and this avoids
	// pulling in sort for one call site.
	for i := 1; i < len(v); i++ {
		for k := i; k > 0 && v[k].ID > v[k-1].ID; k-- {
			v[k], v[k-1] = v[k-1], v[k]
		}
	}
}

func terminal(state State) bool {
	return state == StateDone || state == StateFailed || state == StateCancelled
}

// worker drains the queue until Shutdown closes it. One worker crash-proofs
// one job at a time: a panicking run is recovered inside runJob, so the slot
// survives and keeps serving.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// runJob drives one job to a terminal state: deadline-arm, run once, and
// finalize.
func (s *Server) runJob(j *Job) {
	m := s.cfg.Metrics
	s.mu.Lock()
	if j.cancelled.Load() {
		// Cancelled while queued: finalize without running.
		s.finalizeLocked(j, StateCancelled, nil, errors.New("serve: cancelled while queued"))
		s.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.started = time.Now()
	s.mu.Unlock()
	m.Hist("serve.queue_wait_ns").Record(int64(j.started.Sub(j.submitted)))

	deadline := j.started.Add(j.Spec.Deadline(s.cfg.DefaultDeadline))
	stop := func() bool {
		return j.cancelled.Load() || s.hardStop.Load() || !time.Now().Before(deadline)
	}

	out, err := s.run(j, stop)

	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case err == nil:
		s.finalizeLocked(j, StateDone, out, nil)
	case errors.Is(err, experiments.ErrCancelled) || errors.Is(err, errStopped):
		if j.cancelled.Load() || s.hardStop.Load() {
			s.finalizeLocked(j, StateCancelled, nil, err)
		} else {
			// Neither client nor shutdown asked: the deadline did.
			m.Add("serve.deadlines_exceeded", 1)
			s.finalizeLocked(j, StateFailed, nil,
				fmt.Errorf("serve: deadline exceeded after %v: %w", j.Spec.Deadline(s.cfg.DefaultDeadline), err))
		}
	default:
		s.finalizeLocked(j, StateFailed, nil, err)
	}
}

// errStopped marks a run abandoned by the stop seam outside the
// simulation (e.g. a stub runner honoring Cancelled).
var errStopped = errors.New("serve: run stopped")

// run executes the job once with panic isolation: a panic in the
// runner (or anywhere under it) is recovered, recorded with the goroutine
// stack and a flight-recorder snapshot, and surfaced as a plain error so the
// worker slot survives.
func (s *Server) run(j *Job, stop func() bool) (out *Outcome, err error) {
	m := s.cfg.Metrics
	flight := trace.NewFlight(trace.DefaultFlightLen, trace.DefaultFlightCats)
	t0 := time.Now()
	defer func() {
		m.Hist("serve.run_ns").Record(int64(time.Since(t0)))
		if r := recover(); r != nil {
			m.Add("serve.panics", 1)
			stack := string(debug.Stack())
			s.mu.Lock()
			j.panicValue = fmt.Sprint(r)
			j.panicStack = stack
			j.panicFlight = flight.Events()
			s.mu.Unlock()
			out, err = nil, fmt.Errorf("serve: job %s panicked: %v", j.ID, r)
		}
	}()
	return s.cfg.Runner(&Request{
		Spec:      j.Spec,
		Cancelled: stop,
		Flight:    flight,
	})
}

// finalizeLocked moves a job to a terminal state, updates the single-flight
// and cache maps, and wakes waiters. Caller holds s.mu.
func (s *Server) finalizeLocked(j *Job, state State, out *Outcome, err error) {
	m := s.cfg.Metrics
	j.state = state
	j.outcome = out
	j.err = err
	j.finished = time.Now()
	if s.inflight[j.Key] == j {
		delete(s.inflight, j.Key)
	}
	switch state {
	case StateDone:
		m.Add("serve.jobs_done", 1)
		s.cacheAddLocked(j)
	case StateFailed:
		m.Add("serve.jobs_failed", 1)
	case StateCancelled:
		m.Add("serve.jobs_cancelled", 1)
	default: // StateQueued, StateRunning
		panic(fmt.Sprintf("serve: finalize to non-terminal state %q", state))
	}
	s.retainLocked(j)
	close(j.done)
}

// retainLocked bounds the job table: a finished job stays in it while it is
// among the last CacheCap jobs to finish (defaultCacheCap with caching off)
// or is cached, and not every job since start. Caller holds s.mu.
func (s *Server) retainLocked(j *Job) {
	s.finished = append(s.finished, j)
	keep := s.cfg.CacheCap
	if keep < 0 { // caching off
		keep = defaultCacheCap
	}
	if len(s.finished) <= keep {
		return
	}
	old := s.finished[0]
	s.finished[0] = nil
	s.finished = s.finished[1:]
	old.aged = true
	if s.cache[old.Key] != old {
		delete(s.jobs, old.ID)
	}
}

// cacheAddLocked inserts a completed job into the result cache with FIFO
// eviction. Caller holds s.mu.
func (s *Server) cacheAddLocked(j *Job) {
	if s.cfg.CacheCap < 0 {
		return
	}
	if _, dup := s.cache[j.Key]; dup {
		return
	}
	s.cache[j.Key] = j
	s.cacheFifo = append(s.cacheFifo, j.Key)
	for len(s.cacheFifo) > s.cfg.CacheCap {
		evict := s.cacheFifo[0]
		s.cacheFifo = s.cacheFifo[1:]
		e := s.cache[evict]
		e.hitReply = nil
		delete(s.cache, evict)
		if e.aged {
			delete(s.jobs, e.ID)
		}
		s.cfg.Metrics.Add("serve.cache_evictions", 1)
	}
	s.cfg.Metrics.Set("serve.cache_entries", float64(len(s.cache)))
}

// Shutdown drains the server: no new submissions, queued and running jobs
// get the first half of the budget to finish; at halftime every remaining
// job is cancelled through the stop seam; if workers still have not exited
// by the deadline an error is returned (goroutines may still be winding
// down). Idempotent: later calls just wait on the same drain.
func (s *Server) Shutdown(drain time.Duration) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	half := drain / 2
	select {
	case <-done:
		return nil
	case <-time.After(half):
	}
	s.hardStop.Store(true)
	s.CancelAll()
	select {
	case <-done:
		return nil
	case <-time.After(drain - half):
		return fmt.Errorf("serve: shutdown deadline %v exceeded with jobs still running", drain)
	}
}
