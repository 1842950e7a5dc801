package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"github.com/rdcn-net/tdtcp/internal/experiments"
	"github.com/rdcn-net/tdtcp/internal/fault"
	"github.com/rdcn-net/tdtcp/internal/rdcn"
	"github.com/rdcn-net/tdtcp/internal/workload"
)

// Spec is the JSON scenario specification a client submits: the
// experiments-package config shapes (RunConfig / WorkloadConfig) flattened
// into wire-friendly scalars. Zero fields take the service defaults below —
// deliberately smaller than the library defaults, so an empty spec answers
// in well under a second.
//
// Because runs are fully deterministic, a normalized Spec *is* the result:
// two specs that normalize identically always produce byte-identical runs,
// which is what makes the server's result cache and single-flight
// deduplication sound. DeadlineMS is the one field excluded from that
// identity — it bounds how long the service will wait, not what the run
// computes.
type Spec struct {
	// Kind selects the experiment shape: "run" (long-lived §5.1 flows,
	// default) or "workload" (open-loop flow arrivals with FCT accounting).
	Kind Kind `json:"kind,omitempty"`
	// Variant is the transport under test (default "tdtcp").
	Variant string `json:"variant,omitempty"`
	// Flows is the host-pair count for kind=run (default 4).
	Flows int `json:"flows,omitempty"`
	// Racks is the ToR count: 0/2 = the paper's two-rack hybrid for
	// kind=run; kind=workload defaults to a 4-rack rotor.
	Racks int `json:"racks,omitempty"`
	// Hosts is the per-rack host count for kind=workload (default 2).
	Hosts int `json:"hosts,omitempty"`
	// WarmupWeeks/MeasureWeeks size the run (defaults 1 and 2).
	WarmupWeeks  int `json:"warmup_weeks,omitempty"`
	MeasureWeeks int `json:"measure_weeks,omitempty"`
	// Seed is the simulation seed (default 1). Part of the cache key: the
	// same normalized spec with a different seed is a different run.
	Seed int64 `json:"seed,omitempty"`
	// Schedule optionally overrides the optical schedule with the compact
	// syntax, e.g. "6x(0:180us,-:20us),1:180us,-:20us" (kind=run only).
	Schedule string `json:"schedule,omitempty"`
	// Workload names the flow-size distribution for kind=workload
	// ("websearch", default, or "datamining").
	Workload string `json:"workload,omitempty"`
	// Load is the offered load fraction for kind=workload (default 0.3).
	Load float64 `json:"load,omitempty"`
	// MaxFlows caps kind=workload arrivals (default 256).
	MaxFlows int `json:"max_flows,omitempty"`
	// Fault optionally injects a fault plan, e.g. "nloss=0.1,drop=0.01";
	// FaultSeed seeds it independently of Seed (default 1). kind=run only.
	Fault     string `json:"fault,omitempty"`
	FaultSeed int64  `json:"fault_seed,omitempty"`
	// Invariants turns on the post-event invariant checker (kind=run only).
	Invariants bool `json:"invariants,omitempty"`
	// DeadlineMS caps the job's wall-clock run time in milliseconds; zero
	// uses the server's default deadline. Excluded from the cache key.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// Kind is an experiment shape. A defined type so switches over it are
// checkable by tdlint's exhaustive analysis.
type Kind string

// Spec kinds.
const (
	KindRun      Kind = "run"
	KindWorkload Kind = "workload"
)

// Size ceilings. Building a run costs time and memory in racks × hosts ×
// TDNs before the first simulation event, and the stop seam that enforces a
// job's deadline is polled only between events, so a spec must be refused
// here or not at all: {"racks":20000} once held a worker for 1 m 42 s and
// 3.1 GB before rdcn.New's own range check could fail it. The ceilings are
// fixed, not configurable: each is far above what the paper's experiments
// and this repository's figures use (16 flows, 8 racks, 4 hosts per rack,
// tens of weeks), and the costliest admitted spec (512 flows over 254 racks)
// spends about a second and 250 MB before its first stop poll.
const (
	// maxRacks is the largest fabric the simulator can build. rdcn.New takes
	// rack ids up to 255 (one byte on the wire), but a rotor of an odd number
	// of racks n has n matchings and so n+1 TDNs, TDN ids are one byte too,
	// and 0xFF is packet.NoTDN: 255 racks would need a 256th TDN.
	maxRacks = 254
	// maxRunFlows and maxHosts bound the hosts built per rack (kind=run
	// places flows/racks on each, at least one; kind=workload places hosts).
	maxRunFlows = 512
	maxHosts    = 256
	// maxWarmupWeeks bounds simulated time that holds no growing state and
	// that the deadline can cut; maxMeasureWeeks bounds the window whose
	// 5 µs sample series a run keeps (about 18 kB per hybrid week).
	maxWarmupWeeks  = 100_000
	maxMeasureWeeks = 10_000
	// maxWorkloadFlows bounds what a kind=workload job keeps per arrival: a
	// done-record and an FCT sample. It is one port space of arrivals;
	// RunWorkload itself recycles released ports and has no such limit.
	maxWorkloadFlows = 0xFFFF - 1024 + 1
	// maxDeadlineMS is a day: no admitted spec runs that long, and a budget
	// beyond it is a typo or an overflow waiting for the ms-to-ns conversion.
	maxDeadlineMS = 24 * 60 * 60 * 1000
)

// Normalize fills service defaults and validates everything checkable
// without running: kind, variant, distribution name, schedule and fault-plan
// syntax, and that every size is inside its range. It returns a new Spec;
// the receiver is not modified. Submitting a spec that fails Normalize is a
// client error (HTTP 400), never a job.
func (s *Spec) Normalize() (*Spec, error) {
	n := *s
	if n.Kind == "" {
		n.Kind = KindRun
	}
	if n.Variant == "" {
		n.Variant = string(experiments.TDTCP)
	}
	switch n.Kind {
	case KindRun:
		if n.Flows == 0 {
			n.Flows = 4
		}
		if n.Hosts != 0 {
			return nil, fmt.Errorf("serve: hosts applies only to kind=workload")
		}
		if n.Racks != 0 && (n.Racks < 2 || n.Racks > maxRacks) {
			return nil, fmt.Errorf("serve: kind=run needs racks in [2, %d] (or 0 for the two-rack hybrid), got %d", maxRacks, n.Racks)
		}
		if n.Racks > 2 && n.Schedule != "" {
			return nil, fmt.Errorf("serve: schedule overrides apply only to the two-rack hybrid (racks <= 2)")
		}
		if n.Workload != "" || n.Load != 0 || n.MaxFlows != 0 {
			return nil, fmt.Errorf("serve: workload/load/max_flows apply only to kind=workload")
		}
		if n.FaultSeed == 0 {
			n.FaultSeed = 1
		}
	case KindWorkload:
		if n.Racks == 0 {
			n.Racks = 4
		}
		if n.Racks < 3 || n.Racks > maxRacks {
			return nil, fmt.Errorf("serve: kind=workload needs racks in [3, %d], got %d", maxRacks, n.Racks)
		}
		if n.Hosts == 0 {
			n.Hosts = 2
		}
		if n.Workload == "" {
			n.Workload = "websearch"
		}
		if _, err := workload.ByName(n.Workload); err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		if n.Load == 0 {
			n.Load = 0.3
		}
		if n.Load < 0 || n.Load > 1 {
			return nil, fmt.Errorf("serve: load %v outside (0, 1]", n.Load)
		}
		if n.MaxFlows == 0 {
			n.MaxFlows = 256
		}
		if n.Schedule != "" {
			return nil, fmt.Errorf("serve: schedule overrides apply only to kind=run (workload scenarios derive their rotor schedule from racks)")
		}
		if n.Flows != 0 {
			return nil, fmt.Errorf("serve: flows applies only to kind=run; size workloads with hosts/load/max_flows")
		}
		if n.Fault != "" || n.FaultSeed != 0 || n.Invariants {
			// RunWorkload has no injector or checker to hand them to; accepting
			// them would file an unfaulted, unchecked run under a key that says
			// otherwise.
			return nil, fmt.Errorf("serve: fault/fault_seed/invariants apply only to kind=run")
		}
	default:
		return nil, fmt.Errorf("serve: unknown kind %q (want %q or %q)", n.Kind, KindRun, KindWorkload)
	}
	if err := experiments.CheckVariant(experiments.Variant(n.Variant), n.Racks, n.Kind == KindWorkload); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	for _, f := range [...]struct {
		name   string
		v, max int
	}{
		{"flows", n.Flows, maxRunFlows}, {"hosts", n.Hosts, maxHosts},
		{"warmup_weeks", n.WarmupWeeks, maxWarmupWeeks}, {"measure_weeks", n.MeasureWeeks, maxMeasureWeeks},
		{"max_flows", n.MaxFlows, maxWorkloadFlows},
	} {
		if f.v < 0 || f.v > f.max {
			return nil, fmt.Errorf("serve: %s must be in [0, %d], got %d", f.name, f.max, f.v)
		}
	}
	if n.DeadlineMS < 0 || n.DeadlineMS > maxDeadlineMS {
		return nil, fmt.Errorf("serve: deadline_ms must be in [0, %d], got %d", maxDeadlineMS, n.DeadlineMS)
	}
	if n.WarmupWeeks == 0 {
		n.WarmupWeeks = 1
	}
	if n.MeasureWeeks == 0 {
		n.MeasureWeeks = 2
	}
	if n.Seed == 0 {
		n.Seed = 1
	}
	if n.Schedule != "" {
		if _, err := rdcn.ParseSchedule(n.Schedule); err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
	}
	if n.Fault != "" {
		if _, err := fault.Parse(n.Fault); err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
	}
	return &n, nil
}

// Key returns the normalized spec's cache identity: the hex SHA-256 of its
// canonical JSON encoding with the deadline zeroed. Struct-field order fixes
// the encoding, so equal normalized specs always hash equal. The seed is
// part of the hashed spec, making the key the paper-determinism cache key
// (canonical config hash, seed).
func (s *Spec) Key() string {
	c := *s
	c.DeadlineMS = 0
	b, err := json.Marshal(&c)
	if err != nil {
		// A Spec is plain scalars; Marshal cannot fail. Keep the error path
		// total anyway: an unhashable spec must never alias another's cache
		// entry.
		return fmt.Sprintf("unhashable:%p", s)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Deadline returns the job's wall-clock budget, falling back to def.
func (s *Spec) Deadline(def time.Duration) time.Duration {
	if s.DeadlineMS > 0 {
		return time.Duration(s.DeadlineMS) * time.Millisecond
	}
	return def
}

// runConfig assembles the experiments.RunConfig for a normalized kind=run
// spec. Parse errors cannot occur: Normalize already validated the syntax.
func (s *Spec) runConfig() experiments.RunConfig {
	cfg := experiments.RunConfig{
		Variant:      experiments.Variant(s.Variant),
		Flows:        s.Flows,
		WarmupWeeks:  s.WarmupWeeks,
		MeasureWeeks: s.MeasureWeeks,
		Seed:         s.Seed,
		Invariants:   s.Invariants,
	}
	if s.Racks > 2 {
		cfg.Scenario = experiments.MultiRack(s.Racks)
	} else if s.Schedule != "" {
		cfg.Scenario = experiments.Hybrid()
		cfg.Scenario.Schedule, _ = rdcn.ParseSchedule(s.Schedule)
	}
	if s.Fault != "" {
		plan, _ := fault.Parse(s.Fault)
		cfg.Fault = &plan
		cfg.FaultSeed = s.FaultSeed
	}
	return cfg
}

// workloadConfig assembles the experiments.WorkloadConfig for a normalized
// kind=workload spec.
func (s *Spec) workloadConfig() experiments.WorkloadConfig {
	dist, _ := workload.ByName(s.Workload)
	return experiments.WorkloadConfig{
		Variant:      experiments.Variant(s.Variant),
		Scenario:     experiments.MultiRack(s.Racks),
		Dist:         dist,
		Load:         s.Load,
		Hosts:        s.Hosts,
		WarmupWeeks:  s.WarmupWeeks,
		MeasureWeeks: s.MeasureWeeks,
		Seed:         s.Seed,
		MaxFlows:     s.MaxFlows,
	}
}
