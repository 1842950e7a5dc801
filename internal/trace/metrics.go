package trace

import (
	"io"
	"sort"
	"strconv"
	"sync"
)

// Registry is a flat metrics registry: named monotone counters,
// point-in-time gauges, and log-linear histograms, populated by the layers
// of a run and exported as a machine-readable JSON summary. Keys are dotted
// paths ("total.sender.retransmits", "voq.r0q0.drops", "sim.events_fired").
//
// A nil *Registry is the disabled registry: every method on it is a no-op
// (Hist returns the nil, equally inert *Histogram), so instrumentation
// sites never need their own nil checks. Registry is safe for concurrent
// use; the map lookup happens once at Hist registration, never on Record.
type Registry struct {
	mu       sync.Mutex
	counters map[string]int64
	gauges   map[string]float64
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{counters: map[string]int64{}, gauges: map[string]float64{}, hists: map[string]*Histogram{}}
}

// Hist returns the histogram registered under name, creating it on first
// use. Call at setup time and keep the handle: Record on the handle is the
// hot path, allocation-free after each octave's first record.
func (r *Registry) Hist(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{name: name}
		r.hists[name] = h
	}
	return h
}

// Add increments counter name by delta.
func (r *Registry) Add(name string, delta int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counters[name] += delta
	r.mu.Unlock()
}

// Set records gauge name at value v.
func (r *Registry) Set(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.gauges[name] = v
	r.mu.Unlock()
}

// Counter reads a counter (0 when absent or on a nil registry).
func (r *Registry) Counter(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counters[name]
}

// Gauge reads a gauge (0 when absent or on a nil registry).
func (r *Registry) Gauge(name string) float64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.gauges[name]
}

// WriteJSON renders the registry as a three-section JSON object with keys
// in sorted order, so the output is byte-stable across runs:
//
//	{"counters":{...},"gauges":{...},"histograms":{...}}
//
// Each histogram renders as its summary statistics
// {"count":…,"p50":…,"p90":…,"p99":…,"max":…}; empty histograms are
// included (all zeros) so a dump always names every registered metric.
func (r *Registry) WriteJSON(w io.Writer) error {
	if r == nil {
		_, err := w.Write([]byte("{\"counters\":{},\"gauges\":{},\"histograms\":{}}\n"))
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()

	b := make([]byte, 0, 4096)
	b = append(b, `{"counters":{`...)
	ckeys := make([]string, 0, len(r.counters))
	for k := range r.counters {
		ckeys = append(ckeys, k)
	}
	sort.Strings(ckeys)
	for i, k := range ckeys {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendQuote(b, k)
		b = append(b, ':')
		b = strconv.AppendInt(b, r.counters[k], 10)
	}
	b = append(b, `},"gauges":{`...)
	gkeys := make([]string, 0, len(r.gauges))
	for k := range r.gauges {
		gkeys = append(gkeys, k)
	}
	sort.Strings(gkeys)
	for i, k := range gkeys {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendQuote(b, k)
		b = append(b, ':')
		b = appendFloat(b, r.gauges[k])
	}
	b = append(b, `},"histograms":{`...)
	hkeys := make([]string, 0, len(r.hists))
	for k := range r.hists {
		hkeys = append(hkeys, k)
	}
	sort.Strings(hkeys)
	for i, k := range hkeys {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendQuote(b, k)
		b = append(b, ':')
		b = appendHistSummary(b, r.hists[k])
	}
	b = append(b, "}}\n"...)
	_, err := w.Write(b)
	return err
}

// appendHistSummary renders one histogram's summary object.
func appendHistSummary(b []byte, h *Histogram) []byte {
	b = append(b, `{"count":`...)
	b = strconv.AppendUint(b, h.Count(), 10)
	b = append(b, `,"p50":`...)
	b = strconv.AppendInt(b, h.Quantile(0.50), 10)
	b = append(b, `,"p90":`...)
	b = strconv.AppendInt(b, h.Quantile(0.90), 10)
	b = append(b, `,"p99":`...)
	b = strconv.AppendInt(b, h.Quantile(0.99), 10)
	b = append(b, `,"max":`...)
	b = strconv.AppendInt(b, h.Max(), 10)
	b = append(b, '}')
	return b
}
