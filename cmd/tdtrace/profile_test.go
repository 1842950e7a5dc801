package main

import (
	"bytes"
	"strings"
	"testing"
)

// sample is a hand-built trace: an epoch span parenting a notify span
// parenting a zero-length cwnd_swap, one completed flow span, and one
// unclosed recovery span.
const sample = `{"ts":0,"cat":"rdcn","name":"epoch","flow":-1,"tdn":1,"a":0,"b":0,"ph":"B","span":1}
{"ts":100,"cat":"rdcn","name":"notify","flow":-1,"tdn":1,"a":0,"b":0,"ph":"B","span":2,"parent":1}
{"ts":5100,"cat":"rdcn","name":"notify","flow":-1,"tdn":1,"a":1,"b":5000,"ph":"E","span":2}
{"ts":5100,"cat":"tdn","name":"cwnd_swap","flow":3,"tdn":1,"a":0,"b":0,"ph":"B","span":3,"parent":2}
{"ts":5100,"cat":"tdn","name":"cwnd_swap","flow":3,"tdn":1,"a":0,"b":12,"ph":"E","span":3}
{"ts":200,"cat":"tcp","name":"flow","flow":3,"tdn":-1,"a":0,"b":0,"ph":"B","span":4}
{"ts":180200,"cat":"tcp","name":"flow","flow":3,"tdn":-1,"a":65536,"b":0,"ph":"E","span":4}
{"ts":9000,"cat":"tcp","name":"recovery","flow":3,"tdn":0,"a":0,"b":0,"ph":"B","span":5}
{"ts":180000,"cat":"rdcn","name":"epoch","flow":-1,"tdn":1,"a":1,"b":0,"ph":"E","span":1}
`

func TestSpanStats(t *testing.T) {
	var out bytes.Buffer
	if err := spanStats(strings.NewReader(sample), &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"epoch", "notify", "cwnd_swap", "flow", "recovery"} {
		if !strings.Contains(s, want) {
			t.Errorf("span stats missing %q:\n%s", want, s)
		}
	}
	// recovery is unclosed: count 0, unclosed 1.
	for _, line := range strings.Split(s, "\n") {
		if strings.HasPrefix(line, "recovery") {
			f := strings.Fields(line)
			if f[1] != "0" || f[len(f)-1] != "1" {
				t.Errorf("recovery row should be count=0 unclosed=1: %q", line)
			}
		}
		if strings.HasPrefix(line, "notify ") || strings.HasPrefix(line, "notify\t") {
			if !strings.Contains(line, "5.0us") {
				t.Errorf("notify duration should render as 5.0us: %q", line)
			}
		}
	}
}

func TestFlowTimeline(t *testing.T) {
	var out bytes.Buffer
	if err := flowTimeline(strings.NewReader(sample), &out, 3); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if strings.Contains(s, "epoch") {
		t.Errorf("flow 3 timeline leaked network spans:\n%s", s)
	}
	if !strings.Contains(s, "cwnd_swap") || !strings.Contains(s, "parent=notify/2") {
		t.Errorf("timeline missing cwnd_swap with causal parent:\n%s", s)
	}
	if !strings.Contains(s, "(unclosed)") {
		t.Errorf("unclosed recovery span not flagged:\n%s", s)
	}
	// cwnd_swap hangs two levels below the epoch span: indented deeper than
	// the top-level flow span.
	var flowIndent, swapIndent int
	for _, line := range strings.Split(s, "\n") {
		if len(line) < 15 {
			continue
		}
		rest := line[14:] // after the "%12s  " timestamp column
		indent := len(rest) - len(strings.TrimLeft(rest, " "))
		if strings.HasPrefix(strings.TrimLeft(rest, " "), "flow ") {
			flowIndent = indent
		}
		if strings.Contains(line, "cwnd_swap") {
			swapIndent = indent
		}
	}
	if swapIndent <= flowIndent {
		t.Errorf("cwnd_swap (depth 2) not indented past flow (depth 0):\n%s", s)
	}

	out.Reset()
	if err := flowTimeline(strings.NewReader(sample), &out, 7); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "no spans for flow 7") {
		t.Errorf("empty flow should say so, got %q", out.String())
	}
}

func TestHistSummary(t *testing.T) {
	metrics := `{"counters":{"x":1},"gauges":{},"histograms":{
		"tcp.rtt_tdn0_ns":{"count":100,"p50":98304,"p90":114688,"p99":131072,"max":140000},
		"voq.r0.occ_pkts":{"count":500,"p50":3,"p90":9,"p99":14,"max":16}}}`
	var out bytes.Buffer
	if err := histSummary(strings.NewReader(metrics), &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "98.3us") {
		t.Errorf("_ns histogram not rendered as duration:\n%s", s)
	}
	if !strings.Contains(s, "voq.r0.occ_pkts") || strings.Contains(s, "3ns") {
		t.Errorf("non-ns histogram should print raw integers:\n%s", s)
	}
}

// TestCLIUsageExit pins the process contract: zero modes, two modes, a
// missing input, stray arguments or a timeline without -flow exit 2 with
// usage on stderr and nothing on stdout.
func TestCLIUsageExit(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"x.jsonl"},
		{"-spans"},
		{"-spans", "-hist", "x.jsonl"},
		{"-summary", "x.jsonl", "-filter"},
		{"-summary", "x.jsonl", "-top", "3", "y.jsonl"},
		{"-timeline", "x.jsonl"},
		{"-nosuchflag", "x.jsonl"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, strings.NewReader(""), &stdout, &stderr); code != 2 {
			t.Errorf("args %v: exit %d, want 2", args, code)
		}
		if !strings.Contains(stderr.String(), "-spans") || stdout.Len() != 0 {
			t.Errorf("args %v: want usage on stderr only, got stdout %q stderr %q", args, &stdout, &stderr)
		}
	}
}
