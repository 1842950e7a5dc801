package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// diffBase is a hand-written trace: a span pair, two records at one instant,
// and seven more so that a late divergence has five records of context.
const diffBase = `{"ts":0,"cat":"rdcn","name":"epoch","flow":-1,"tdn":0,"a":0,"b":0,"ph":"B","span":1}
{"ts":100,"cat":"tcp","name":"retransmit","flow":1,"tdn":0,"a":1,"b":0}
{"ts":100,"cat":"voq","name":"voq_drop","flow":-1,"tdn":0,"a":16,"b":0,"s":"r0q0"}
{"ts":200,"cat":"rdcn","name":"epoch","flow":-1,"tdn":0,"a":1,"b":0,"ph":"E","span":1}
{"ts":300,"cat":"tcp","name":"sack","flow":2,"tdn":1,"a":1,"b":0}
{"ts":400,"cat":"tcp","name":"sack","flow":2,"tdn":1,"a":2,"b":0}
{"ts":500,"cat":"tcp","name":"sack","flow":2,"tdn":1,"a":3,"b":0}
{"ts":600,"cat":"tdn","name":"tdn_switch","flow":3,"tdn":1,"a":0,"b":1}
{"ts":700,"cat":"tcp","name":"sack","flow":2,"tdn":1,"a":4,"b":0}
{"ts":800,"cat":"tcp","name":"sack","flow":2,"tdn":1,"a":5,"b":0}
{"ts":900,"cat":"tcp","name":"rto_fire","flow":2,"tdn":1,"a":0,"b":0}
`

func TestDiff(t *testing.T) {
	lines := strings.SplitAfter(diffBase, "\n")
	// Other span ids, and the two records at t=100 the other way round.
	renumbered := strings.ReplaceAll(diffBase, `"span":1}`, `"span":7,"parent":3}`)
	swapped := strings.Join([]string{lines[0], lines[2], lines[1]}, "") + strings.Join(lines[3:], "")
	// The TDN switch of flow 3 lands 50 ns later.
	moved := strings.Replace(diffBase, `{"ts":600,"cat":"tdn"`, `{"ts":650,"cat":"tdn"`, 1)

	dir := t.TempDir()
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	a := write("a.jsonl", diffBase)
	for _, tc := range []struct {
		name, b string
		code    int
		want    []string
	}{
		{"span ids only", renumbered, 0, []string{"identical: 11 records"}},
		{"order within an instant", swapped, 0,
			[]string{"permutation within equal timestamps only: 11 records, 1 instants reordered, first at t=100 ns"}},
		{"a record moves", moved, 1, []string{
			"diverges at t=600 ns: flow 3, tdn 1, tdn/tdn_switch (record 8 of ",
			`> {"ts":600,"cat":"tdn"`, "> (no such record)",
			`  {"ts":200,`, `  {"ts":500,`, `  {"ts":650,`, // five before, and what b has instead
			`  {"ts":900,`,
		}},
	} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"diff", a, write("b.jsonl", tc.b)}, nil, &stdout, &stderr)
		if code != tc.code {
			t.Errorf("%s: exit %d, want %d (stderr %q)", tc.name, code, tc.code, &stderr)
		}
		for _, want := range tc.want {
			if !strings.Contains(stdout.String(), want) {
				t.Errorf("%s: output lacks %q:\n%s", tc.name, want, &stdout)
			}
		}
		if tc.code == 0 && strings.Count(stdout.String(), "\n") != 1 {
			t.Errorf("%s: want the summary line alone:\n%s", tc.name, &stdout)
		}
	}

	var stdout, stderr bytes.Buffer
	if code := run([]string{"diff", a, filepath.Join(dir, "missing.jsonl")}, nil, &stdout, &stderr); code != 2 {
		t.Errorf("unreadable input: exit %d, want 2", code)
	}
	if code := run([]string{"diff", a, write("bad.jsonl", "not json\n")}, nil, &stdout, &stderr); code != 2 {
		t.Errorf("unparsable input: exit %d, want 2", code)
	}
	if code := run([]string{"diff", a}, nil, &stdout, &stderr); code != 2 {
		t.Errorf("one operand: exit %d, want 2", code)
	}
}
