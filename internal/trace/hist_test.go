package trace

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
)

func TestHistNilSafe(t *testing.T) {
	var h *Histogram
	h.Record(5)
	if h.Count() != 0 || h.Max() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 || h.Name() != "" {
		t.Fatal("nil histogram not inert")
	}
	var r *Registry
	if r.Hist("x") != nil {
		t.Fatal("nil registry returned a histogram")
	}
}

func TestHistIndexRoundTrip(t *testing.T) {
	// Every bucket's lower bound must map back to that bucket, and indexes
	// must be monotone in the value.
	for i := 0; i < histBuckets; i++ {
		if got := histIndex(histValue(i)); got != i {
			t.Fatalf("histIndex(histValue(%d)) = %d", i, got)
		}
	}
	prev := -1
	for _, v := range []int64{0, 1, 31, 32, 33, 63, 64, 100, 1 << 20, 1<<62 + 12345, math.MaxInt64} {
		idx := histIndex(v)
		if idx < prev || idx >= histBuckets {
			t.Fatalf("histIndex(%d) = %d (prev %d, buckets %d)", v, idx, prev, histBuckets)
		}
		prev = idx
	}
}

func TestHistQuantiles(t *testing.T) {
	h := &Histogram{name: "t"}
	for v := int64(1); v <= 1000; v++ {
		h.Record(v * 1000) // 1us .. 1ms in ns
	}
	if h.Count() != 1000 || h.Max() != 1000000 {
		t.Fatalf("count=%d max=%d", h.Count(), h.Max())
	}
	if mean := h.Mean(); math.Abs(mean-500500) > 1 {
		t.Fatalf("mean = %f", mean)
	}
	// Log-linear relative error is bounded by one sub-bucket (~1/32), and
	// quantiles report bucket lower bounds, so allow a one-sided 2/32 band.
	for _, tc := range []struct{ q, want float64 }{{0.50, 500000}, {0.90, 900000}, {0.99, 990000}, {1.0, 1000000}} {
		got := float64(h.Quantile(tc.q))
		if got > tc.want || got < tc.want*(1-2.0/histSub) {
			t.Fatalf("Quantile(%v) = %v, want within [%v, %v]", tc.q, got, tc.want*(1-2.0/histSub), tc.want)
		}
	}
	if h.Quantile(0) == 0 {
		t.Fatal("Quantile(0) should be the smallest bucket, not 0, after records")
	}
	h.Record(-5) // clamps to 0
	if h.Quantile(0) != 0 {
		t.Fatal("negative record did not clamp to zero bucket")
	}
}

func TestRegistryHistJSON(t *testing.T) {
	r := NewRegistry()
	if r.Hist("b.lat_ns") != r.Hist("b.lat_ns") {
		t.Fatal("Hist not idempotent")
	}
	r.Hist("a.empty_ns")
	h := r.Hist("b.lat_ns")
	for i := int64(1); i <= 100; i++ {
		h.Record(i)
	}
	r.Add("c.count", 1)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("invalid JSON: %s", buf.String())
	}
	var parsed struct {
		Histograms map[string]struct {
			Count uint64 `json:"count"`
			P50   int64  `json:"p50"`
			P90   int64  `json:"p90"`
			P99   int64  `json:"p99"`
			Max   int64  `json:"max"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatal(err)
	}
	if len(parsed.Histograms) != 2 {
		t.Fatalf("histogram sections: %+v", parsed.Histograms)
	}
	bh := parsed.Histograms["b.lat_ns"]
	if bh.Count != 100 || bh.Max != 100 || bh.P50 == 0 || bh.P99 < bh.P50 {
		t.Fatalf("summary wrong: %+v", bh)
	}
	if e := parsed.Histograms["a.empty_ns"]; e.Count != 0 || e.Max != 0 {
		t.Fatalf("empty histogram should render zeros: %+v", e)
	}
	// Byte-stability: two renders are identical.
	var again bytes.Buffer
	if err := r.WriteJSON(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("WriteJSON not byte-stable")
	}
	// Nil registry now includes the (empty) histograms section.
	buf.Reset()
	if err := (*Registry)(nil).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"histograms":{}`)) {
		t.Fatalf("nil registry output: %s", buf.String())
	}
}

// flatHist is the reference histogram: every bucket a plain counter, all of
// them there from the start, and the quantile rule written out once more.
type flatHist struct {
	count   uint64
	sum     int64
	max     int64
	buckets [histBuckets]uint64
}

func (f *flatHist) record(v int64) {
	if v < 0 {
		v = 0
	}
	f.buckets[histIndex(v)]++
	f.count++
	f.sum += v
	if v > f.max {
		f.max = v
	}
}

func (f *flatHist) mean() float64 {
	if f.count == 0 {
		return 0
	}
	return float64(f.sum) / float64(f.count)
}

// quantile: the lower bound of the bucket holding the observation of rank
// q·count rounded half-up (at least 1), clamped to the maximum.
func (f *flatHist) quantile(q float64) int64 {
	if f.count == 0 {
		return 0
	}
	rank := uint64(math.Floor(q*float64(f.count) + 0.5))
	rank = max(1, min(rank, f.count))
	var seen uint64
	for i, c := range f.buckets {
		if seen += c; c > 0 && seen >= rank {
			return min(histValue(i), f.max)
		}
	}
	return f.max
}

// referenceValues: zero, negatives, the extremes, both sides of every octave
// boundary and a seeded spread over all octaves.
func referenceValues() []int64 {
	vs := []int64{0, -1, -5, math.MinInt64, math.MaxInt64}
	for k := histSubBits; k < 63; k++ {
		vs = append(vs, 1<<k-1, 1<<k, 1<<k+1)
	}
	rng := rand.New(rand.NewSource(26))
	for i := 0; i < 2000; i++ {
		vs = append(vs, rng.Int63()>>rng.Intn(63))
	}
	return vs
}

// refMetricsJSON is Registry.WriteJSON over referenceValues recorded into
// "t.ref_ns", the first 70 of them into "t.small" and nothing into
// "a.empty_ns", as the flat-array histogram rendered it.
const refMetricsJSON = `{"counters":{},"gauges":{},"histograms":{"a.empty_ns":{"count":0,"p50":0,"p90":0,"p99":0,"max":0},"t.ref_ns":{"count":2179,"p50":2348810240,"p90":56294995342131200,"p99":4539628424389459968,"max":9223372036854775807},"t.small":{"count":70,"p50":32256,"p90":16777216,"p99":67108864,"max":9223372036854775807}}}` + "\n"

// TestHistogramMatchesFlatReference: whatever the histogram's storage, every
// number it reports is the flat reference's, and a metrics dump is
// byte-for-byte what the flat layout wrote.
func TestHistogramMatchesFlatReference(t *testing.T) {
	r := NewRegistry()
	r.Hist("a.empty_ns")
	h, small := r.Hist("t.ref_ns"), r.Hist("t.small")
	var ref, smallRef flatHist
	for i, v := range referenceValues() {
		h.Record(v)
		ref.record(v)
		if i < 70 {
			small.Record(v)
			smallRef.record(v)
		}
	}
	for _, tc := range []struct {
		h   *Histogram
		ref *flatHist
	}{{h, &ref}, {small, &smallRef}, {r.Hist("a.empty_ns"), &flatHist{}}} {
		if tc.h.Count() != tc.ref.count || tc.h.Max() != tc.ref.max || tc.h.Mean() != tc.ref.mean() {
			t.Errorf("%s: count %d max %d mean %v, reference %d %d %v", tc.h.Name(),
				tc.h.Count(), tc.h.Max(), tc.h.Mean(), tc.ref.count, tc.ref.max, tc.ref.mean())
		}
		for i := 0; i < histBuckets; i++ {
			if got := tc.h.bucket(i); got != tc.ref.buckets[i] {
				t.Fatalf("%s: bucket %d holds %d, reference %d", tc.h.Name(), i, got, tc.ref.buckets[i])
			}
		}
		for i := 0; i <= 100; i++ {
			q := float64(i) / 100
			if got, want := tc.h.Quantile(q), tc.ref.quantile(q); got != want {
				t.Errorf("%s: Quantile(%v) = %d, reference %d", tc.h.Name(), q, got, want)
			}
		}
	}
	// The rounding rule, pinned where it differs from ⌈q·n⌉: of 70
	// observations, p99 is the 69th (69.3 rounds to 69), not the 70th.
	sorted := append([]int64(nil), referenceValues()[:70]...)
	slices.Sort(sorted)
	bucketOf := func(v int64) int64 { return min(histValue(histIndex(max(v, 0))), smallRef.max) }
	if got, want := small.Quantile(0.99), bucketOf(sorted[68]); got != want || want == bucketOf(sorted[69]) {
		t.Errorf("t.small: Quantile(0.99) = %d, want the 69th observation's %d (70th: %d)", got, want, bucketOf(sorted[69]))
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != refMetricsJSON {
		t.Errorf("WriteJSON:\n got %s\nwant %s", got, refMetricsJSON)
	}

	// Goroutines racing to record into octaves no one has touched lose no
	// count. Under -race this is also the record path's data-race check.
	t.Run("concurrent_first_records", func(t *testing.T) {
		h := &Histogram{name: "t.race"}
		vs := referenceValues()
		const writers = 4
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, v := range vs {
					h.Record(v)
					runtime.Gosched()
				}
			}()
		}
		wg.Wait()
		var sum uint64
		for i := 0; i < histBuckets; i++ {
			sum += h.bucket(i)
		}
		if want := uint64(writers * len(vs)); h.Count() != want || sum != want {
			t.Fatalf("count %d, buckets sum to %d, recorded %d", h.Count(), sum, want)
		}
	})
}

// histSink keeps the histograms under measurement on the heap.
var histSink *Histogram

// TestHistogramAllocatesTouchedOctavesOnly is the histogram's allocation
// contract: a histogram holds its 512 B header plus 256 B for each octave it
// has recorded into, and a Record into an octave already there allocates
// nothing.
func TestHistogramAllocatesTouchedOctavesOnly(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates on this path")
	}
	for _, k := range []int{0, 1, 2, 8, histBuckets / histSub} {
		// TotalAlloc is the whole process's, so another goroutine can only
		// add to a reading: keep the least of three.
		got, limit := uint64(math.MaxUint64), uint64(512+k*256)
		for try := 0; try < 3; try++ {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			histSink = &Histogram{name: "t.alloc"}
			for o := 0; o < k; o++ {
				histSink.Record(histValue(o << histSubBits))
			}
			runtime.ReadMemStats(&after)
			got = min(got, after.TotalAlloc-before.TotalAlloc)
		}
		t.Logf("%2d octaves touched: %5d B (limit %5d)", k, got, limit)
		if got > limit {
			t.Errorf("%d octaves touched: %d B allocated, limit %d", k, got, limit)
		}
	}
	h := &Histogram{name: "t.steady"}
	h.Record(1000)
	if a := testing.AllocsPerRun(1000, func() { h.Record(1001) }); a != 0 {
		t.Errorf("Record into a touched octave: %v allocations, want 0", a)
	}
}
