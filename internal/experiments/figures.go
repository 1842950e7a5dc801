package experiments

import (
	"fmt"
	"slices"
	"strings"

	"github.com/rdcn-net/tdtcp/internal/core"
	"github.com/rdcn-net/tdtcp/internal/rdcn"
	"github.com/rdcn-net/tdtcp/internal/sim"
	"github.com/rdcn-net/tdtcp/internal/stats"
	"github.com/rdcn-net/tdtcp/internal/workload"
)

// Options scales a figure reproduction.
type Options struct {
	Flows                     int
	WarmupWeeks, MeasureWeeks int
	Seed                      int64
	// Racks sets the rotor fabric size for the multi-rack figures
	// (default 4; ignored by the paper's two-rack figures).
	Racks int
	// Workload names the flow-size distribution of the workload figures
	// (default "websearch"; see workload.ByName).
	Workload string
	// Quick shrinks the run for fast smoke benches.
	Quick bool
}

func (o *Options) fill() {
	if o.Flows == 0 {
		o.Flows = 16
	}
	if o.WarmupWeeks == 0 {
		o.WarmupWeeks = 3
	}
	if o.MeasureWeeks == 0 {
		// Long windows dilute the measurement-boundary catch-up (data in
		// flight at warmup end is delivered inside the window).
		o.MeasureWeeks = 20
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Racks == 0 {
		o.Racks = 4
	}
	if o.Workload == "" {
		o.Workload = "websearch"
	}
	if o.Quick {
		o.WarmupWeeks, o.MeasureWeeks = 2, 3
	}
}

// SummaryRow is one line of a figure's summary table.
type SummaryRow struct {
	Label       string
	GoodputGbps float64
	// Extra carries figure-specific columns (percentiles, occupancies, …).
	Extra map[string]float64
}

// Figure is a reproduced table/figure: plottable series plus the summary
// rows the paper's text quotes.
type Figure struct {
	ID, Title string
	// Seq holds sequence-graph series (bytes vs µs), VOQ occupancy series
	// (packets vs µs), CDF value-vs-fraction series — whatever the figure
	// plots.
	Seq, VOQ, CDF []*stats.Series
	Summary       []SummaryRow
	Notes         []string
}

// Render produces a human-readable reproduction of the figure.
func (f *Figure) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", f.ID, f.Title)
	if len(f.Summary) > 0 {
		seen := map[string]bool{}
		keys := []string{}
		for _, r := range f.Summary {
			for k := range r.Extra {
				if !seen[k] {
					seen[k] = true
					keys = append(keys, k)
				}
			}
		}
		slices.Sort(keys)
		fmt.Fprintf(&b, "%-14s %12s", "series", "goodput_gbps")
		for _, k := range keys {
			fmt.Fprintf(&b, " %14s", k)
		}
		b.WriteByte('\n')
		for _, r := range f.Summary {
			fmt.Fprintf(&b, "%-14s %12.2f", r.Label, r.GoodputGbps)
			for _, k := range keys {
				if v, ok := r.Extra[k]; ok {
					fmt.Fprintf(&b, " %14.2f", v)
				} else {
					fmt.Fprintf(&b, " %14s", "-")
				}
			}
			b.WriteByte('\n')
		}
	}
	for _, n := range f.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// plotWindow truncates a series to the paper's PlotWeeks-optical-week
// plotting span, rebasing its time axis to the window start (series may begin
// at 0 if already normalized, or at the measurement start time otherwise).
func plotWindow(sch *rdcn.Schedule, s *stats.Series) *stats.Series {
	span := PlotWeeks * float64(sim.Dur(sch.Week())) / float64(sim.Microsecond)
	base := 0.0
	if s.Len() > 0 {
		base = s.T[0]
	}
	out := s.Window(base, base+span)
	for i := range out.T {
		out.T[i] -= base
	}
	return out
}

func runVariants(o Options, scenario Scenario, variants []Variant) ([]*Result, error) {
	results := make([]*Result, 0, len(variants))
	for _, v := range variants {
		res, err := Run(RunConfig{
			Variant: v, Scenario: scenario, Flows: o.Flows,
			WarmupWeeks: o.WarmupWeeks, MeasureWeeks: o.MeasureWeeks, Seed: o.Seed,
		})
		if err != nil {
			return nil, err
		}
		results = append(results, res)
	}
	return results, nil
}

func seqFigure(id, title string, o Options, scenario Scenario, variants []Variant) (*Figure, error) {
	results, err := runVariants(o, scenario, variants)
	if err != nil {
		return nil, err
	}
	fig := &Figure{ID: id, Title: title}
	first := results[0]
	opt := plotWindow(scenario.Schedule, first.Optimal())
	opt.Label = "optimal"
	fig.Seq = append(fig.Seq, opt)
	fig.Summary = append(fig.Summary, SummaryRow{Label: "optimal", GoodputGbps: first.OptimalGbps})
	for _, r := range results {
		fig.Seq = append(fig.Seq, plotWindow(scenario.Schedule, r.Seq))
		fig.VOQ = append(fig.VOQ, plotWindow(scenario.Schedule, r.VOQ))
		fig.Summary = append(fig.Summary, SummaryRow{
			Label: string(r.Variant), GoodputGbps: r.GoodputGbps,
			Extra: map[string]float64{
				"voq_mean": r.VOQMean,
				"voq_max":  r.VOQMax,
			},
		})
	}
	po := plotWindow(scenario.Schedule, first.PacketOnly())
	po.Label = "packet only"
	fig.Seq = append(fig.Seq, po)
	fig.Summary = append(fig.Summary, SummaryRow{Label: "packet only", GoodputGbps: first.PacketOnlyGbps})
	return fig, nil
}

// Fig2 reproduces Figure 2: sequence graphs of single-path CUBIC and MPTCP
// against the optimal and packet-only references on the hybrid RDCN.
func Fig2(o Options) (*Figure, error) {
	o.fill()
	return seqFigure("fig2", "TCP variants in a hybrid RDCN (sequence graph, 3 weeks)",
		o, Hybrid(), []Variant{Cubic, MPTCP})
}

// Fig7 reproduces Figure 7: sequence graphs (a) and ToR VOQ occupancy (b)
// for every variant under combined bandwidth and latency differences.
func Fig7(o Options) (*Figure, error) {
	o.fill()
	return seqFigure("fig7", "throughput and VOQ occupancy, bandwidth+latency difference",
		o, Hybrid(), AllVariants)
}

// Fig8 reproduces Figure 8: the same comparison with only a bandwidth
// difference between the TDNs.
func Fig8(o Options) (*Figure, error) {
	o.fill()
	return seqFigure("fig8", "throughput and VOQ occupancy, bandwidth difference only",
		o, BandwidthOnly(), AllVariants)
}

// Fig9 reproduces Figure 9: only a latency difference, at 100 Gbps.
func Fig9(o Options) (*Figure, error) {
	o.fill()
	fig, err := seqFigure("fig9", "throughput with only latency difference at 100 Gbps",
		o, LatencyOnly(100*sim.Gbps), AllVariants)
	if err != nil {
		return nil, err
	}
	fig.Notes = append(fig.Notes,
		"optimal and packet-only nearly overlap: both TDNs have identical capacity; packet-only avoids blackouts")
	return fig, nil
}

// Fig10 reproduces Figure 10: CDFs of reordering events per optical day (a)
// and packets to be retransmitted per optical day (b) for CUBIC, MPTCP and
// TDTCP.
func Fig10(o Options) (*Figure, error) {
	o.fill()
	if !o.Quick && o.MeasureWeeks < 20 {
		o.MeasureWeeks = 20 // CDF tails want more optical days
	}
	results, err := runVariants(o, Hybrid(), []Variant{Cubic, MPTCP, TDTCP})
	if err != nil {
		return nil, err
	}
	// A fourth series — TDTCP with the §3.4 relaxed detection disabled —
	// isolates what the filter buys (the paper's cubic-vs-tdtcp delta).
	abl, err := Run(RunConfig{
		Variant: TDTCP, Scenario: Hybrid(), Flows: o.Flows,
		WarmupWeeks: o.WarmupWeeks, MeasureWeeks: o.MeasureWeeks, Seed: o.Seed,
		Flow: FlowOptions{TDTCPOpts: core.Options{DisableRelaxedReordering: true}},
	})
	if err != nil {
		return nil, err
	}
	abl.Variant = "tdtcp-nofilter"
	results = append(results, abl)
	fig := &Figure{ID: "fig10", Title: "reordering events and retransmissions per optical day (CDFs)"}
	for _, r := range results {
		ev, rt := r.ReorderEventsPerDay, r.RetransPerDay
		fig.CDF = append(fig.CDF, ev.Series(string(r.Variant)+"/reorder-events"))
		fig.CDF = append(fig.CDF, rt.Series(string(r.Variant)+"/retransmits"))
		fig.Summary = append(fig.Summary, SummaryRow{
			Label: string(r.Variant), GoodputGbps: r.GoodputGbps,
			Extra: map[string]float64{
				"events_p50":  ev.Percentile(50),
				"events_p90":  ev.Percentile(90),
				"retrans_p50": rt.Percentile(50),
				"retrans_p90": rt.Percentile(90),
				"retrans_max": rt.Max(),
				"spurious_rx": float64(r.Receiver.DupSegsRcvd),
			},
		})
	}
	fig.Notes = append(fig.Notes,
		"paper: CUBIC retransmits 15 pkts/day at p90 (max 133); TDTCP cuts the tail to 7 at p90 (max 54)")
	return fig, nil
}

// Fig11 reproduces Figure 11: TDTCP with and without the §5.4 notification
// optimizations (paper: optimizations are worth 12.7% throughput).
func Fig11(o Options) (*Figure, error) {
	o.fill()
	fig := &Figure{ID: "fig11", Title: "TDTCP with/without TDN-change notification optimizations"}
	profiles := []struct {
		label string
		prof  rdcn.NotifyProfile
	}{
		{"optimized", rdcn.OptimizedNotify()},
		{"unoptimized", rdcn.UnoptimizedNotify()},
	}
	var goodputs []float64
	for _, p := range profiles {
		prof := p.prof
		res, err := Run(RunConfig{
			Variant: TDTCP, Scenario: Hybrid(), Flows: o.Flows,
			WarmupWeeks: o.WarmupWeeks, MeasureWeeks: o.MeasureWeeks, Seed: o.Seed,
			Notify: &prof,
		})
		if err != nil {
			return nil, err
		}
		s := plotWindow(Hybrid().Schedule, res.Seq)
		s.Label = p.label
		fig.Seq = append(fig.Seq, s)
		fig.Summary = append(fig.Summary, SummaryRow{Label: p.label, GoodputGbps: res.GoodputGbps})
		goodputs = append(goodputs, res.GoodputGbps)
	}
	if goodputs[1] > 0 {
		fig.Notes = append(fig.Notes, fmt.Sprintf(
			"optimizations improve throughput by %.1f%% (paper: 12.7%%)",
			(goodputs[0]/goodputs[1]-1)*100))
	}
	return fig, nil
}

// Fig13 reproduces Appendix Figure 13: VOQ occupancy of CUBIC and MPTCP on
// the hybrid RDCN.
func Fig13(o Options) (*Figure, error) {
	o.fill()
	results, err := runVariants(o, Hybrid(), []Variant{Cubic, MPTCP})
	if err != nil {
		return nil, err
	}
	fig := &Figure{ID: "fig13", Title: "ToR VOQ occupancy of CUBIC and MPTCP (hybrid RDCN)"}
	for _, r := range results {
		fig.VOQ = append(fig.VOQ, plotWindow(Hybrid().Schedule, r.VOQ))
		fig.Summary = append(fig.Summary, SummaryRow{
			Label: string(r.Variant), GoodputGbps: r.GoodputGbps,
			Extra: map[string]float64{"voq_mean": r.VOQMean, "voq_max": r.VOQMax},
		})
	}
	return fig, nil
}

// Fig14 reproduces Appendix Figure 14: VOQ occupancy with only latency
// differences, at 10 Gbps (a) and 100 Gbps (b).
func Fig14(o Options) (*Figure, error) {
	o.fill()
	fig := &Figure{ID: "fig14", Title: "VOQ occupancy, latency difference only (10 and 100 Gbps)"}
	for _, rate := range []sim.Rate{10 * sim.Gbps, 100 * sim.Gbps} {
		results, err := runVariants(o, LatencyOnly(rate), AllVariants)
		if err != nil {
			return nil, err
		}
		for _, r := range results {
			s := plotWindow(LatencyOnly(rate).Schedule, r.VOQ)
			s.Label = fmt.Sprintf("%s@%s", r.Variant, rate)
			fig.VOQ = append(fig.VOQ, s)
			fig.Summary = append(fig.Summary, SummaryRow{
				Label: s.Label, GoodputGbps: r.GoodputGbps,
				Extra: map[string]float64{"voq_mean": r.VOQMean, "voq_max": r.VOQMax},
			})
		}
	}
	fig.Notes = append(fig.Notes,
		"paper: reTCP builds large queues ahead of circuit start although the circuit BDP is smaller; TDTCP stays in line with CUBIC/DCTCP")
	return fig, nil
}

// Headline reproduces the abstract's throughput claims: TDTCP beats CUBIC
// and DCTCP by ~24% and MPTCP by ~41%, and matches reTCP(dyn).
func Headline(o Options) (*Figure, error) {
	o.fill()
	results, err := runVariants(o, Hybrid(), AllVariants)
	if err != nil {
		return nil, err
	}
	byVariant := map[Variant]float64{}
	fig := &Figure{ID: "headline", Title: "long-lived flow goodput, hybrid RDCN"}
	for _, r := range results {
		byVariant[r.Variant] = r.GoodputGbps
		fig.Summary = append(fig.Summary, SummaryRow{Label: string(r.Variant), GoodputGbps: r.GoodputGbps})
	}
	t := byVariant[TDTCP]
	for _, base := range []Variant{Cubic, DCTCP, MPTCP, ReTCPDyn} {
		if byVariant[base] > 0 {
			fig.Notes = append(fig.Notes, fmt.Sprintf("tdtcp vs %s: %+.1f%%", base, (t/byVariant[base]-1)*100))
		}
	}
	fig.Notes = append(fig.Notes, "paper: +24% vs cubic/dctcp, +41% vs mptcp, parity with retcpdyn")
	return fig, nil
}

// Ablation quantifies each TDTCP mechanism's contribution (DESIGN.md's
// design-choice benches): the full design vs disabling the §3.4 reordering
// filter, the §4.4 RTT sample filter, and the §4.4 pessimistic RTO.
func Ablation(o Options) (*Figure, error) {
	o.fill()
	cases := []struct {
		label string
		opts  core.Options
	}{
		{"full", core.Options{}},
		{"no-reorder-filter", core.Options{DisableRelaxedReordering: true}},
		{"no-rtt-filter", core.Options{DisableRTTFilter: true}},
		{"no-pessimistic-rto", core.Options{DisablePessimisticRTO: true}},
	}
	fig := &Figure{ID: "ablation", Title: "TDTCP mechanism ablation (goodput, hybrid RDCN)"}
	for _, cse := range cases {
		res, err := Run(RunConfig{
			Variant: TDTCP, Scenario: Hybrid(), Flows: o.Flows,
			WarmupWeeks: o.WarmupWeeks, MeasureWeeks: o.MeasureWeeks, Seed: o.Seed,
			Flow: FlowOptions{TDTCPOpts: cse.opts},
		})
		if err != nil {
			return nil, err
		}
		fig.Summary = append(fig.Summary, SummaryRow{
			Label: cse.label, GoodputGbps: res.GoodputGbps,
			Extra: map[string]float64{
				"retransmits": float64(res.Sender.Retransmits),
				"spurious_rx": float64(res.Receiver.DupSegsRcvd),
			},
		})
	}
	return fig, nil
}

// RotorVariants are the transports that generalize to the multi-rack rotor
// fabric (MPTCP's subflow pinning and reTCP's circuit signal are two-rack
// constructs).
var RotorVariants = []Variant{TDTCP, Cubic, DCTCP}

// FigRotor runs the §5.1-style long-lived flow comparison on an N-rack rotor
// RDCN: sequence graphs, VOQ occupancy and goodput for the variants that
// generalize beyond two racks.
func FigRotor(o Options) (*Figure, error) {
	o.fill()
	fig, err := seqFigure("rotor",
		fmt.Sprintf("long-lived flows on a %d-rack rotor RDCN", o.Racks),
		o, MultiRack(o.Racks), RotorVariants)
	if err != nil {
		return nil, err
	}
	by := map[string]float64{}
	for _, r := range fig.Summary {
		by[r.Label] = r.GoodputGbps
	}
	if by["cubic"] > 0 {
		fig.Notes = append(fig.Notes, fmt.Sprintf(
			"tdtcp vs cubic on %d racks: %+.1f%%", o.Racks, (by["tdtcp"]/by["cubic"]-1)*100))
	}
	return fig, nil
}

// FigMultiRack runs the open-loop flow workload (Poisson arrivals, sizes from
// the named distribution) on an N-rack rotor RDCN and reports goodput, VOQ
// occupancy and flow completion times per size bucket.
func FigMultiRack(o Options) (*Figure, error) {
	o.fill()
	dist, err := workload.ByName(o.Workload)
	if err != nil {
		return nil, err
	}
	fig := &Figure{ID: "multirack", Title: fmt.Sprintf(
		"%d-rack rotor RDCN, %s workload: goodput and FCT", o.Racks, o.Workload)}
	for _, v := range RotorVariants {
		res, err := RunWorkload(WorkloadConfig{
			Variant: v, Scenario: MultiRack(o.Racks), Dist: dist,
			WarmupWeeks: o.WarmupWeeks, MeasureWeeks: o.MeasureWeeks, Seed: o.Seed,
		})
		if err != nil {
			return nil, err
		}
		extra := map[string]float64{
			"voq_mean":    res.MeanVOQ,
			"flows_done":  float64(res.FlowsCompleted),
			"flows_total": float64(res.FlowsStarted),
		}
		for _, s := range res.FCT.Summaries() {
			if s.N > 0 {
				extra["fct_"+s.Bucket+"_us"] = s.MeanUs
			}
		}
		fig.Summary = append(fig.Summary, SummaryRow{
			Label: string(v), GoodputGbps: res.GoodputGbps, Extra: extra,
		})
		if c := res.FCT.CDF("all"); c.N() > 0 {
			fig.CDF = append(fig.CDF, c.Series(string(v)+"/fct-us"))
		}
	}
	fig.Notes = append(fig.Notes,
		"FCTs cover flows arriving in the measurement window that completed before the horizon")
	return fig, nil
}

// Figures maps figure IDs to their runners (the cmd/tdsim dispatch table).
var Figures = map[string]func(Options) (*Figure, error){
	"fig2":      Fig2,
	"fig7":      Fig7,
	"fig8":      Fig8,
	"fig9":      Fig9,
	"fig10":     Fig10,
	"fig11":     Fig11,
	"fig13":     Fig13,
	"fig14":     Fig14,
	"headline":  Headline,
	"ablation":  Ablation,
	"rotor":     FigRotor,
	"multirack": FigMultiRack,
}
