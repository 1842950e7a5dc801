package trace

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	if tr.Enabled(CatTCP) {
		t.Fatal("nil tracer reports enabled")
	}
	tr.Emit(CatTCP, 1, "x", 0, 0, 1, 2, "s") // must not panic
	if tr.Count() != 0 || tr.Err() != nil || tr.Flush() != nil {
		t.Fatal("nil tracer not inert")
	}
}

// flightTracer is the in-memory tracer of these tests: no JSONL output, every
// event in mask recorded into an n-slot flight ring.
func flightTracer(n int, mask Category) (*Tracer, *Flight) {
	f := NewFlight(n, mask)
	return (*Tracer)(nil).WithFlight(f), f
}

func TestCategoryMask(t *testing.T) {
	tr, f := flightTracer(8, CatTCP|CatVOQ)
	tr.Emit(CatTCP, 1, "a", 0, 0, 0, 0, "")
	tr.Emit(CatCC, 2, "b", 0, 0, 0, 0, "") // masked out
	tr.Emit(CatVOQ, 3, "c", 0, 0, 0, 0, "")
	if got := f.Count(); got != 2 {
		t.Fatalf("Count = %d, want 2", got)
	}
	evs := f.Events()
	if len(evs) != 2 || evs[0].Name != "a" || evs[1].Name != "c" {
		t.Fatalf("unexpected events %+v", evs)
	}
}

func TestParseCategories(t *testing.T) {
	m, err := ParseCategories("tcp,cc, voq")
	if err != nil || m != CatTCP|CatCC|CatVOQ {
		t.Fatalf("ParseCategories = %v, %v", m, err)
	}
	if m, err = ParseCategories("all"); err != nil || m != CatAll {
		t.Fatalf("all = %v, %v", m, err)
	}
	if m, err = ParseCategories(""); err != nil || m != 0 {
		t.Fatalf("empty = %v, %v", m, err)
	}
	if _, err = ParseCategories("bogus"); err == nil {
		t.Fatal("bogus category accepted")
	}
	if got := (CatTCP | CatTDN).String(); got != "tcp,tdn" {
		t.Fatalf("String = %q", got)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tr := New(&buf, CatAll)
	tr.Emit(CatTCP, 1234, "ca_state", 3, 1, 42.5, math.Inf(1), `open>"recovery"`)
	tr.Emit(CatRDCN, 5678, "day", -1, 0, 2, 180000, "")
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	var ev Event
	if err := ParseLine([]byte(lines[0]), &ev); err != nil {
		t.Fatalf("line 0 invalid: %v", err)
	}
	if ev.TS != 1234 || ev.Cat != "tcp" || ev.Name != "ca_state" || ev.Flow != 3 ||
		ev.TDN != 1 || ev.A != 42.5 || ev.B != -1 || ev.S != `open>"recovery"` {
		t.Fatalf("round trip mismatch: %+v", ev)
	}
	if err := ParseLine([]byte(lines[1]), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.S != "" {
		t.Fatalf("S not reset between parses: %q", ev.S)
	}
}

func TestDeterministicBytes(t *testing.T) {
	run := func() []byte {
		var buf bytes.Buffer
		tr := New(&buf, CatAll)
		for i := 0; i < 100; i++ {
			tr.Emit(CatVOQ, int64(i), "voq_enq", i%4, i%2, float64(i)*0.1, 16, "r0q0")
		}
		tr.Flush()
		return buf.Bytes()
	}
	if !bytes.Equal(run(), run()) {
		t.Fatal("identical emission sequences produced different bytes")
	}
}

// TestConcurrentEmit exercises the tracer's concurrent writer path; run
// under -race (ci.sh does).
func TestConcurrentEmit(t *testing.T) {
	var buf bytes.Buffer
	tr := New(&buf, CatAll)
	const goroutines, each = 8, 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				tr.Emit(CatTCP, int64(i), "ev", g, -1, float64(i), 0, "concurrent")
			}
		}(g)
	}
	wg.Wait()
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimRight(buf.Bytes(), "\n"), []byte("\n"))
	if len(lines) != goroutines*each {
		t.Fatalf("got %d lines, want %d", len(lines), goroutines*each)
	}
	var ev Event
	for i, line := range lines {
		if err := ParseLine(line, &ev); err != nil {
			t.Fatalf("line %d corrupt (%v): %s", i, err, line)
		}
	}
}

func TestRegistry(t *testing.T) {
	var nilReg *Registry
	nilReg.Add("x", 1)
	nilReg.Set("y", 2)
	if nilReg.Counter("x") != 0 || nilReg.Gauge("y") != 0 {
		t.Fatal("nil registry not inert")
	}
	var buf bytes.Buffer
	if err := nilReg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("nil registry JSON invalid: %s", buf.Bytes())
	}

	r := NewRegistry()
	r.Add("b.count", 2)
	r.Add("a.count", 1)
	r.Add("b.count", 3)
	r.Set("z.gauge", 1.5)
	r.Set("m.gauge", math.Inf(1))
	if r.Counter("b.count") != 5 {
		t.Fatalf("counter = %d", r.Counter("b.count"))
	}
	buf.Reset()
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("invalid JSON: %s", out)
	}
	if strings.Index(out, `"a.count"`) > strings.Index(out, `"b.count"`) {
		t.Fatalf("keys not sorted: %s", out)
	}
	var parsed struct {
		Counters map[string]int64   `json:"counters"`
		Gauges   map[string]float64 `json:"gauges"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatal(err)
	}
	if parsed.Counters["a.count"] != 1 || parsed.Gauges["m.gauge"] != -1 {
		t.Fatalf("parsed mismatch: %+v", parsed)
	}
}

func TestChromeExport(t *testing.T) {
	var jsonl bytes.Buffer
	tr := New(&jsonl, CatAll)
	tr.Emit(CatRDCN, 0, "day", -1, 0, 1, 180000, "")
	tr.Emit(CatCC, 1000, "grow", 2, 1, 12, 40, "cubic")
	tr.Emit(CatVOQ, 2000, "voq_enq", -1, 0, 7, 16, "r0q0")
	tr.Emit(CatTCP, 3000, "retransmit", 2, 1, 8960, 1, "")
	tr.Flush()

	var out bytes.Buffer
	if err := Chrome(&jsonl, &out); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(out.Bytes()) {
		t.Fatalf("chrome output not valid JSON:\n%s", out.String())
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	phases := map[string]int{}
	names := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		phases[ev["ph"].(string)]++
		names[ev["name"].(string)] = true
	}
	if phases["X"] != 1 || phases["C"] != 2 || phases["i"] != 1 || phases["M"] == 0 {
		t.Fatalf("phase mix wrong: %v", phases)
	}
	if !names["day"] || !names["cwnd f2/tdn1"] || !names["occupancy r0q0"] || !names["retransmit"] {
		t.Fatalf("names missing: %v", names)
	}
}

// TestSpanRoundTrip pins the span JSONL encoding: deterministic ids, the
// parent link on begins, payloads on ends, and the rule that point events
// encode without any span fields.
func TestSpanRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tr := New(&buf, CatAll)
	root := tr.BeginSpan(CatRDCN, 0, "epoch", -1, 0, 0)
	child := tr.BeginSpan(CatRDCN, 10, "notify", -1, 0, root)
	tr.Emit(CatTCP, 15, "point", 1, 0, 1, 2, "")
	tr.EndSpan(CatRDCN, 20, "notify", -1, 0, child, 0, 0)
	tr.EndSpan(CatRDCN, 30, "epoch", -1, 0, root, 7, 0)
	tr.Flush()
	if root != 1 || child != 2 {
		t.Fatalf("span ids = %d, %d; want 1, 2", root, child)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("got %d lines, want 5", len(lines))
	}
	var ev Event
	if err := ParseLine([]byte(lines[1]), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Ph != "B" || ev.Span != 2 || ev.Parent != 1 || ev.Name != "notify" {
		t.Fatalf("child begin wrong: %+v", ev)
	}
	if err := ParseLine([]byte(lines[2]), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Ph != "" || ev.Span != 0 || strings.Contains(lines[2], "ph") {
		t.Fatalf("point event grew span fields: %s", lines[2])
	}
	if err := ParseLine([]byte(lines[4]), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Ph != "E" || ev.Span != 1 || ev.A != 7 || ev.Parent != 0 {
		t.Fatalf("root end wrong: %+v", ev)
	}
}

func TestSpanDisabled(t *testing.T) {
	var nilTr *Tracer
	if id := nilTr.BeginSpan(CatTCP, 0, "x", 0, 0, 0); id != 0 {
		t.Fatalf("nil tracer allocated span %d", id)
	}
	nilTr.EndSpan(CatTCP, 1, "x", 0, 0, 0, 0, 0) // must not panic
	nilTr.PushParent(3)
	nilTr.PopParent()
	if nilTr.Parent() != 0 {
		t.Fatal("nil tracer has a parent span")
	}

	tr, f := flightTracer(4, CatTCP)
	if id := tr.BeginSpan(CatVOQ, 0, "x", 0, 0, 0); id != 0 {
		t.Fatal("masked-out span allocated an id")
	}
	tr.EndSpan(CatVOQ, 1, "x", 0, 0, 0, 0, 0)
	if f.Count() != 0 {
		t.Fatal("masked-out span recorded events")
	}
	// Masked-out spans must not consume ids: the next recorded span still
	// gets id 1, keeping ids deterministic per tracer configuration.
	if id := tr.BeginSpan(CatTCP, 2, "y", 0, 0, 0); id != 1 {
		t.Fatalf("first recorded span id = %d, want 1", id)
	}
}

func TestParentStack(t *testing.T) {
	tr, _ := flightTracer(4, CatAll)
	if tr.Parent() != 0 {
		t.Fatal("fresh tracer has a parent")
	}
	tr.PushParent(5)
	tr.PushParent(9)
	if tr.Parent() != 9 {
		t.Fatalf("Parent = %d, want 9", tr.Parent())
	}
	tr.PopParent()
	if tr.Parent() != 5 {
		t.Fatalf("Parent = %d, want 5", tr.Parent())
	}
	// Saturation: pushes beyond the fixed depth are dropped but stay
	// balanced with their pops.
	for i := 0; i < maxSpanDepth+3; i++ {
		tr.PushParent(SpanID(100 + i))
	}
	if tr.Parent() != 0 {
		t.Fatal("saturated stack should report no parent")
	}
	for i := 0; i < maxSpanDepth+3; i++ {
		tr.PopParent()
	}
	if tr.Parent() != 5 {
		t.Fatalf("unbalanced after saturation: %d", tr.Parent())
	}
	tr.PopParent()
	tr.PopParent() // extra pop on empty stack must be safe
	if tr.Parent() != 0 {
		t.Fatal("stack not empty")
	}
}

func TestChromeSpanExport(t *testing.T) {
	var jsonl bytes.Buffer
	tr := New(&jsonl, CatAll)
	id := tr.BeginSpan(CatTCP, 1000, "recovery", 2, 1, 0)
	tr.EndSpan(CatTCP, 5000, "recovery", 2, 1, id, 3, 0)
	tr.Flush()
	var out bytes.Buffer
	if err := Chrome(&jsonl, &out); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string  `json:"ph"`
			ID   int64   `json:"id"`
			Name string  `json:"name"`
			TS   float64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var b, e int
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "b":
			b++
			if ev.ID != int64(id) || ev.Name != "recovery" || ev.TS != 1 {
				t.Fatalf("begin wrong: %+v", ev)
			}
		case "e":
			e++
			if ev.ID != int64(id) || ev.TS != 5 {
				t.Fatalf("end wrong: %+v", ev)
			}
		}
	}
	if b != 1 || e != 1 {
		t.Fatalf("b/e counts = %d/%d, want 1/1", b, e)
	}
}

func TestChromeRejectsCorruptLine(t *testing.T) {
	in := strings.NewReader("{\"ts\":1,\"cat\":\"tcp\",\"name\":\"x\",\"flow\":0,\"tdn\":0,\"a\":0,\"b\":0}\nnot json\n")
	if err := Chrome(in, &bytes.Buffer{}); err == nil {
		t.Fatal("corrupt line accepted")
	}
}
