package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"slices"
	"strings"

	"github.com/rdcn-net/tdtcp/internal/trace"
)

// The profile views: span statistics and per-flow causal timelines from a
// JSONL trace, histogram summaries from a metrics dump.

// span is one reassembled Begin/End pair (or an unclosed Begin).
type span struct {
	id       int64
	parent   int64
	name     string
	flow     int
	tdn      int
	begin    int64
	end      int64
	a, b     float64
	complete bool
}

// collectSpans reassembles spans from a JSONL trace by span id.
func collectSpans(r io.Reader) (map[int64]*span, []*span, error) {
	byID := make(map[int64]*span)
	var order []*span
	err := forEachEvent(r, func(_ []byte, ev *trace.Event) error {
		switch ev.Ph {
		case "B":
			s := &span{id: ev.Span, parent: ev.Parent, name: ev.Name,
				flow: ev.Flow, tdn: ev.TDN, begin: ev.TS}
			byID[ev.Span] = s
			order = append(order, s)
		case "E":
			if s, ok := byID[ev.Span]; ok {
				s.end, s.a, s.b, s.complete = ev.TS, ev.A, ev.B, true
				if ev.TDN != -1 {
					s.tdn = ev.TDN
				}
			}
		}
		return nil
	})
	return byID, order, err
}

// spanStats prints per-name duration aggregates, longest mean first.
func spanStats(r io.Reader, w io.Writer) error {
	_, order, err := collectSpans(r)
	if err != nil {
		return err
	}
	type agg struct {
		durs     []int64
		unclosed int
	}
	byName := map[string]*agg{}
	for _, s := range order {
		a := byName[s.name]
		if a == nil {
			a = &agg{}
			byName[s.name] = a
		}
		if s.complete {
			a.durs = append(a.durs, s.end-s.begin)
		} else {
			a.unclosed++
		}
	}
	names := slices.SortedFunc(maps.Keys(byName), func(x, y string) int {
		return cmp.Or(cmp.Compare(mean(byName[y].durs), mean(byName[x].durs)), cmp.Compare(x, y))
	})
	fmt.Fprintf(w, "%-12s %8s %10s %10s %10s %10s %10s %9s\n",
		"span", "count", "mean", "p50", "p90", "p99", "max", "unclosed")
	for _, n := range names {
		a := byName[n]
		slices.Sort(a.durs)
		fmt.Fprintf(w, "%-12s %8d %10s %10s %10s %10s %10s %9d\n",
			n, len(a.durs), fmtNs(int64(mean(a.durs))),
			fmtNs(quantile(a.durs, 0.50)), fmtNs(quantile(a.durs, 0.90)),
			fmtNs(quantile(a.durs, 0.99)), fmtNs(quantile(a.durs, 1.0)), a.unclosed)
	}
	if len(names) == 0 {
		fmt.Fprintln(w, "no spans in trace (was it recorded with span-emitting categories?)")
	}
	return nil
}

// flowTimeline prints one flow's spans in begin order, indented by causal
// depth (a span whose parent chain reaches another recorded span nests under
// it, crossing layers: epoch -> notify -> cwnd_swap).
func flowTimeline(r io.Reader, w io.Writer, flow int) error {
	byID, order, err := collectSpans(r)
	if err != nil {
		return err
	}
	depth := func(s *span) int {
		d := 0
		for p := s.parent; p != 0; {
			ps, ok := byID[p]
			if !ok {
				break
			}
			d++
			p = ps.parent
		}
		return d
	}
	n := 0
	for _, s := range order {
		// A flow's timeline includes the network-level ancestors (flow -1)
		// of its own spans only when asked for explicitly via -flow -1.
		if s.flow != flow {
			continue
		}
		n++
		dur := "   (unclosed)"
		if s.complete {
			dur = fmtNs(s.end - s.begin)
		}
		fmt.Fprintf(w, "%12s  %*s%-12s tdn=%-2d span=%-5d", fmtNs(s.begin), 2*depth(s), "", s.name, s.tdn, s.id)
		if s.parent != 0 {
			if ps, ok := byID[s.parent]; ok {
				fmt.Fprintf(w, " parent=%s/%d", ps.name, s.parent)
			} else {
				fmt.Fprintf(w, " parent=%d", s.parent)
			}
		}
		fmt.Fprintf(w, " dur=%s a=%g b=%g\n", dur, s.a, s.b)
	}
	if n == 0 {
		fmt.Fprintf(w, "no spans for flow %d\n", flow)
	}
	return nil
}

// histSummary renders the "histograms" section of a metrics JSON dump as a
// table, sorted by name.
func histSummary(r io.Reader, w io.Writer) error {
	var doc struct {
		Histograms map[string]struct {
			Count uint64  `json:"count"`
			P50   int64   `json:"p50"`
			P90   int64   `json:"p90"`
			P99   int64   `json:"p99"`
			Max   int64   `json:"max"`
			Mean  float64 `json:"mean"`
		} `json:"histograms"`
	}
	dec := json.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return fmt.Errorf("parsing metrics JSON: %w", err)
	}
	if len(doc.Histograms) == 0 {
		fmt.Fprintln(w, "no histograms in metrics dump")
		return nil
	}
	fmt.Fprintf(w, "%-24s %10s %12s %12s %12s %12s\n", "histogram", "count", "p50", "p90", "p99", "max")
	for _, n := range slices.Sorted(maps.Keys(doc.Histograms)) {
		h := doc.Histograms[n]
		// _ns-suffixed metrics are durations; everything else prints raw.
		f := func(v int64) string {
			if strings.HasSuffix(n, "_ns") {
				return fmtNs(v)
			}
			return fmt.Sprintf("%d", v)
		}
		fmt.Fprintf(w, "%-24s %10d %12s %12s %12s %12s\n", n, h.Count, f(h.P50), f(h.P90), f(h.P99), f(h.Max))
	}
	return nil
}

func mean(vs []int64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var sum int64
	for _, v := range vs {
		sum += v
	}
	return float64(sum) / float64(len(vs))
}

// quantile returns the q-th quantile of sorted vs (nearest-rank).
func quantile(vs []int64, q float64) int64 {
	if len(vs) == 0 {
		return 0
	}
	i := int(q * float64(len(vs)-1))
	return vs[i]
}

// fmtNs renders nanoseconds with an adaptive unit.
func fmtNs(v int64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.3fs", float64(v)/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.3fms", float64(v)/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fus", float64(v)/1e3)
	default:
		return fmt.Sprintf("%dns", v)
	}
}
