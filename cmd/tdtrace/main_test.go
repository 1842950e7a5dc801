package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// events is a hand-built trace over two flows, two TDNs and three
// categories; sample (profile_test.go) is the span-bearing one.
const events = `{"ts":0,"cat":"rdcn","name":"day","flow":-1,"tdn":0,"a":1,"b":180000}
{"ts":1000,"cat":"tcp","name":"retransmit","flow":1,"tdn":0,"a":0,"b":0}
{"ts":2000,"cat":"voq","name":"voq_drop","flow":-1,"tdn":0,"a":16,"b":0,"s":"r0q0"}
{"ts":2500,"cat":"voq","name":"voq_drop","flow":-1,"tdn":1,"a":16,"b":0,"s":"r1q0"}
{"ts":3000,"cat":"voq","name":"voq_drop","flow":-1,"tdn":1,"a":16,"b":0,"s":"r1q0"}
{"ts":2000000,"cat":"tdn","name":"tdn_switch","flow":2,"tdn":1,"a":0,"b":0}
{"ts":4000000,"cat":"tcp","name":"rto_fire","flow":2,"tdn":1,"a":0,"b":0}
`

// runOK runs the command on stdin and returns its stdout.
func runOK(t *testing.T, stdin string, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, strings.NewReader(stdin), &stdout, &stderr); code != 0 {
		t.Fatalf("tdtrace %v: exit %d, stderr %q", args, code, &stderr)
	}
	return stdout.String()
}

func TestSummary(t *testing.T) {
	s := runOK(t, events, "-summary", "-top", "1", "-")
	for _, want := range []string{
		"events   7 over 4.000 ms",
		"voq/voq_drop             3",
		"top 1 droppers (VOQ)",
		"r1q0         2 drops",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
	if strings.Contains(s, "r0q0") {
		t.Errorf("-top 1 listed a second dropper:\n%s", s)
	}
	// Flow 2: one switch, one RTO; TDN 1: two drops, one switch.
	for _, line := range strings.Split(s, "\n") {
		f := strings.Fields(line)
		switch {
		case strings.HasPrefix(line, "  flow 2"):
			if f[2] != "2" || f[4] != "1" || f[len(f)-1] != "1" {
				t.Errorf("flow 2 row: %q", line)
			}
		case strings.HasPrefix(line, "  tdn 1"):
			if f[3] != "2" || f[len(f)-1] != "1" {
				t.Errorf("tdn 1 row: %q", line)
			}
		}
	}
	if got := runOK(t, "", "-summary", "-"); got != "no events\n" {
		t.Errorf("empty trace: %q", got)
	}
}

func TestFilter(t *testing.T) {
	lines := strings.Split(strings.TrimSuffix(events, "\n"), "\n")
	for _, tc := range []struct {
		args []string
		want []int // indexes into lines
	}{
		{[]string{"-cat", "voq,rdcn"}, []int{0, 2, 3, 4}},
		{[]string{"-flow", "2"}, []int{5, 6}},
		{[]string{"-flow", "-1", "-tdn", "1"}, []int{3, 4}},
		{[]string{"-name", "voq_drop", "-from", "2500", "-to", "3us"}, []int{3}},
		{[]string{"-from", "2ms", "-to", "4ms"}, []int{5}},
		{[]string{"-from", "1s"}, nil},
	} {
		var want strings.Builder
		for _, i := range tc.want {
			want.WriteString(lines[i] + "\n")
		}
		args := append(append([]string{"-filter"}, tc.args...), "-")
		if got := runOK(t, events, args...); got != want.String() {
			t.Errorf("%v:\n got %q\nwant %q", tc.args, got, want.String())
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-filter", "-from", "soon", "-"}, strings.NewReader(events), &stdout, &stderr); code != 1 ||
		!strings.Contains(stderr.String(), `bad time "soon"`) {
		t.Errorf("bad -from: exit %d, stderr %q", code, &stderr)
	}
}

// TestMalformedLine: every JSONL mode reads through forEachEvent, so each
// names the offending line and exits 1.
func TestMalformedLine(t *testing.T) {
	bad := strings.Replace(events, `{"ts":2500,`, `{"ts":oops,`, 1)
	for _, mode := range [][]string{{"-summary"}, {"-filter"}, {"-spans"}, {"-timeline", "-flow", "1"}} {
		var stdout, stderr bytes.Buffer
		code := run(append(mode, "-"), strings.NewReader(bad), &stdout, &stderr)
		if code != 1 || !strings.HasPrefix(stderr.String(), "tdtrace: line 4: ") {
			t.Errorf("%v: exit %d, stderr %q; want exit 1 naming line 4", mode, code, &stderr)
		}
	}
}

// TestFilesAndTrailingFlags covers the file paths: a named input, flags after
// it, and -o; and the profile views reached through the command line.
func TestFilesAndTrailingFlags(t *testing.T) {
	dir := t.TempDir()
	in, out := filepath.Join(dir, "in.jsonl"), filepath.Join(dir, "out.json")
	if err := os.WriteFile(in, []byte(sample), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := runOK(t, "", "-chrome", in, "-o", out); got != "" {
		t.Errorf("-o given but stdout got %q", got)
	}
	if b, err := os.ReadFile(out); err != nil || !bytes.Contains(b, []byte(`"traceEvents"`)) {
		t.Errorf("chrome export: err %v, %d bytes", err, len(b))
	}
	if got := runOK(t, "", "-timeline", in, "-flow", "3"); !strings.Contains(got, "parent=notify/2") {
		t.Errorf("-timeline -flow 3:\n%s", got)
	}
	if got := runOK(t, "", "-spans", in); !strings.Contains(got, "cwnd_swap") {
		t.Errorf("-spans:\n%s", got)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-summary", filepath.Join(dir, "absent")}, nil, &stdout, &stderr); code != 1 {
		t.Errorf("missing input: exit %d, want 1", code)
	}
}
