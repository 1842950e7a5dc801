package serve

import (
	"bytes"
	"encoding/json"

	"github.com/rdcn-net/tdtcp/internal/experiments"
	"github.com/rdcn-net/tdtcp/internal/trace"
)

// Request is what the worker pool hands a Runner: the normalized spec plus
// the server-side plumbing for the run. Cancelled is the cooperative stop
// seam (deadline or client cancel or drain); Flight is the per-job flight
// recorder whose contents are snapshotted into the job result if the run
// panics.
type Request struct {
	Spec *Spec
	// Cancelled is polled between simulation events (every
	// sim.DefaultStopEvery); a Runner must abandon the run promptly once it
	// returns true.
	Cancelled func() bool
	// Flight is the job's private flight recorder. Runners should wire it
	// into the run so a panic snapshot has the last events in hand.
	Flight *trace.Flight
}

// Outcome is the durable, JSON-ready result of one successful run. It is
// what the cache stores and the result endpoint returns, so it holds plain
// values only — no handles into live simulation state.
type Outcome struct {
	Kind        Kind    `json:"kind"`
	Variant     string  `json:"variant"`
	GoodputGbps float64 `json:"goodput_gbps"`
	// OptimalGbps/PacketOnlyGbps are the analytic references (kind=run only).
	OptimalGbps    float64 `json:"optimal_gbps,omitempty"`
	PacketOnlyGbps float64 `json:"packet_only_gbps,omitempty"`
	// Retransmits aggregates sender retransmissions (kind=run only).
	Retransmits uint64 `json:"retransmits,omitempty"`
	// TDTCPSwitches counts per-TDN state swaps (kind=run, tdtcp only).
	TDTCPSwitches uint64 `json:"tdtcp_switches,omitempty"`
	// FlowsStarted/FlowsCompleted are the open-loop workload ledger
	// (kind=workload only).
	FlowsStarted   int   `json:"flows_started,omitempty"`
	FlowsCompleted int   `json:"flows_completed,omitempty"`
	BytesOffered   int64 `json:"bytes_offered,omitempty"`
	// MedianFCTUs is the median flow completion time in microseconds over
	// the measurement window (kind=workload only; 0 when no flow completed).
	MedianFCTUs float64 `json:"median_fct_us,omitempty"`
	// InvariantChecks/InvariantViolations report the runtime checker when
	// the spec asked for it.
	InvariantChecks     uint64 `json:"invariant_checks,omitempty"`
	InvariantViolations int    `json:"invariant_violations,omitempty"`
	// Metrics is the run's full trace.Registry dump (counters, gauges,
	// histogram summaries), verbatim JSON.
	Metrics json.RawMessage `json:"metrics,omitempty"`
}

// Runner executes one normalized spec. The default is DefaultRunner, which
// drives the real experiments package; tests substitute stubs to exercise
// the pool's failure machinery (panics, errors, slow jobs) without
// burning simulation time.
type Runner func(req *Request) (*Outcome, error)

// registryJSON dumps a registry as canonical JSON bytes.
func registryJSON(m *trace.Registry) json.RawMessage {
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		return nil
	}
	return json.RawMessage(buf.Bytes())
}

// DefaultRunner runs the spec through experiments.Run / RunWorkload with the
// request's cancellation seam and flight recorder wired in. The run itself
// is fully deterministic — the seam and recorder sit outside the determinism
// boundary — which is what entitles the server to cache its Outcome by spec
// key.
func DefaultRunner(req *Request) (*Outcome, error) {
	metrics := trace.NewRegistry()
	switch req.Spec.Kind {
	case KindWorkload:
		cfg := req.Spec.workloadConfig()
		cfg.Metrics = metrics
		cfg.Flight = req.Flight
		cfg.Stop = req.Cancelled
		res, err := experiments.RunWorkload(cfg)
		if err != nil {
			return nil, err
		}
		out := &Outcome{
			Kind:           KindWorkload,
			Variant:        string(res.Variant),
			GoodputGbps:    res.GoodputGbps,
			FlowsStarted:   res.FlowsStarted,
			FlowsCompleted: res.FlowsCompleted,
			BytesOffered:   res.BytesOffered,
			Metrics:        registryJSON(metrics),
		}
		if fct := res.FCT.CDF("all"); fct.N() > 0 {
			out.MedianFCTUs = fct.Percentile(50)
		}
		return out, nil
	default: // KindRun — Normalize admits nothing else
		cfg := req.Spec.runConfig()
		cfg.Metrics = metrics
		cfg.Flight = req.Flight
		cfg.Stop = req.Cancelled
		res, err := experiments.Run(cfg)
		if err != nil {
			return nil, err
		}
		return &Outcome{
			Kind:                KindRun,
			Variant:             string(res.Variant),
			GoodputGbps:         res.GoodputGbps,
			OptimalGbps:         res.OptimalGbps,
			PacketOnlyGbps:      res.PacketOnlyGbps,
			Retransmits:         uint64(res.Sender.Retransmits),
			TDTCPSwitches:       res.TDTCPSwitches,
			InvariantChecks:     res.InvariantChecks,
			InvariantViolations: len(res.Violations),
			Metrics:             registryJSON(metrics),
		}, nil
	}
}
