// Command tdtrace post-processes what tdsim's observability flags write:
// JSONL event traces (tdsim -trace, or any trace.Tracer) and metrics dumps
// (tdsim -metrics).
//
//	tdtrace -summary out.jsonl              # per-category/flow/TDN rollups
//	tdtrace -chrome out.jsonl -o out.json   # Chrome trace-viewer export
//	tdtrace -filter -cat voq,rdcn out.jsonl # select events, emit JSONL
//	tdtrace -filter -flow 3 -from 2ms -to 4ms out.jsonl
//	tdtrace -spans out.jsonl                # duration stats per span name
//	tdtrace -timeline -flow 3 out.jsonl     # flow 3's causal span timeline
//	tdtrace -hist metrics.json              # histogram summary table
//	tdtrace diff a.jsonl b.jsonl            # where two traces first diverge
//
// Exactly one of -summary, -chrome, -filter, -spans, -timeline, -hist must be
// chosen. The input is a file path or "-" for stdin; output goes to -o
// (default stdout). Chrome exports load in chrome://tracing or
// https://ui.perfetto.dev.
//
// diff takes two trace files and no flags. It compares records ignoring span
// and parent ids, takes the records of one timestamp as a multiset, prints the
// first divergent record with five records of context either side in each
// file, and ends with one summary line: identical (exit 0), permutation within
// equal timestamps only (exit 0), or diverges at t (exit 1); exit 2 when a
// file cannot be read.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"

	"github.com/rdcn-net/tdtcp/internal/trace"
)

func main() { os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr)) }

// run is the whole command behind main: 0 on success, 1 when the input
// cannot be read or parsed, 2 on a usage error (diff: see diffTraces).
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "diff" {
		if len(args) != 3 {
			fmt.Fprintln(stderr, "usage: tdtrace diff a.jsonl b.jsonl")
			return 2
		}
		w := bufio.NewWriter(stdout)
		defer w.Flush()
		return diffTraces(args[1], args[2], w, stderr)
	}
	fs := flag.NewFlagSet("tdtrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		doSummary  = fs.Bool("summary", false, "print per-category, per-flow and per-TDN rollups")
		doChrome   = fs.Bool("chrome", false, "convert to Chrome trace-viewer JSON")
		doFilter   = fs.Bool("filter", false, "select matching events and re-emit JSONL")
		doSpans    = fs.Bool("spans", false, "aggregate span durations per name: count, mean, p50, p90, p99, max")
		doTimeline = fs.Bool("timeline", false, "print the causal span timeline of -flow N (span begin/end, duration, parent chain)")
		doHist     = fs.Bool("hist", false, "print the histogram summaries from a -metrics JSON dump")
		out        = fs.String("o", "-", "output file ('-' = stdout)")
		topN       = fs.Int("top", 5, "top-N droppers/retransmitters in the summary")

		fCats = fs.String("cat", "", "filter: categories (comma-separated, e.g. 'voq,rdcn')")
		fName = fs.String("name", "", "filter: event name (exact match)")
		fFlow = fs.Int("flow", -2, "filter, timeline: flow id (-1 = unlabeled network events)")
		fTDN  = fs.Int("tdn", -2, "filter: TDN label")
		fFrom = fs.String("from", "", "filter: start of time window (e.g. '2ms', '180us', '1500000' ns)")
		fTo   = fs.String("to", "", "filter: end of time window (exclusive)")
	)
	// Go's flag package stops at the first positional argument; accept
	// "tdtrace -chrome out.jsonl -o out.json" by parsing again what follows
	// the input path.
	err := fs.Parse(args)
	input, extra := fs.Arg(0), 0
	if err == nil && fs.NArg() > 1 {
		err = fs.Parse(fs.Args()[1:])
		extra = fs.NArg()
	}
	if errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}
	modes := 0
	for _, m := range []bool{*doSummary, *doChrome, *doFilter, *doSpans, *doTimeline, *doHist} {
		if m {
			modes++
		}
	}
	if modes != 1 || input == "" || extra != 0 || (*doTimeline && *fFlow == -2) {
		fs.Usage()
		return 2
	}

	err = func() error {
		in, closeIn, err := openIn(input, stdin)
		if err != nil {
			return err
		}
		defer closeIn()
		w, closeOut, err := openOut(*out, stdout)
		if err != nil {
			return err
		}
		switch {
		case *doChrome:
			err = trace.Chrome(in, w)
		case *doSummary:
			err = summarize(in, w, *topN)
		case *doFilter:
			var flt *filter
			if flt, err = buildFilter(*fCats, *fName, *fFlow, *fTDN, *fFrom, *fTo); err == nil {
				err = filterEvents(in, w, flt)
			}
		case *doSpans:
			err = spanStats(in, w)
		case *doTimeline:
			err = flowTimeline(in, w, *fFlow)
		case *doHist:
			err = histSummary(in, w)
		}
		return errors.Join(err, closeOut())
	}()
	if err != nil {
		fmt.Fprintln(stderr, "tdtrace:", err)
		return 1
	}
	return 0
}

func openIn(path string, stdin io.Reader) (io.Reader, func() error, error) {
	if path == "-" {
		return stdin, func() error { return nil }, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	return f, f.Close, nil
}

func openOut(path string, stdout io.Writer) (io.Writer, func() error, error) {
	if path == "-" {
		w := bufio.NewWriter(stdout)
		return w, w.Flush, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	w := bufio.NewWriter(f)
	return w, func() error {
		if err := w.Flush(); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}, nil
}

// parseTime parses a virtual timestamp: a bare integer is nanoseconds;
// ns/us/ms/s suffixes are accepted.
func parseTime(s string) (int64, error) {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "ns"):
		s = s[:len(s)-2]
	case strings.HasSuffix(s, "us"):
		s, mult = s[:len(s)-2], 1e3
	case strings.HasSuffix(s, "ms"):
		s, mult = s[:len(s)-2], 1e6
	case strings.HasSuffix(s, "s"):
		s, mult = s[:len(s)-1], 1e9
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		return 0, fmt.Errorf("bad time %q: %v", s, err)
	}
	return int64(v * float64(mult)), nil
}

type filter struct {
	cats      map[string]bool // nil = all
	name      string
	flow, tdn int   // -2 = any
	from, to  int64 // [from, to) in ns
}

func buildFilter(cats, name string, flow, tdn int, from, to string) (*filter, error) {
	f := &filter{name: name, flow: flow, tdn: tdn, from: math.MinInt64, to: math.MaxInt64}
	if cats != "" {
		mask, err := trace.ParseCategories(cats)
		if err != nil {
			return nil, err
		}
		f.cats = map[string]bool{}
		for _, c := range []trace.Category{trace.CatSim, trace.CatTCP, trace.CatCC,
			trace.CatTDN, trace.CatVOQ, trace.CatRDCN, trace.CatFault} {
			if mask&c != 0 {
				f.cats[c.String()] = true
			}
		}
	}
	var err error
	if from != "" {
		if f.from, err = parseTime(from); err != nil {
			return nil, err
		}
	}
	if to != "" {
		if f.to, err = parseTime(to); err != nil {
			return nil, err
		}
	}
	return f, nil
}

func (f *filter) match(ev *trace.Event) bool {
	if f.cats != nil && !f.cats[ev.Cat] {
		return false
	}
	if f.name != "" && ev.Name != f.name {
		return false
	}
	if f.flow != -2 && ev.Flow != f.flow {
		return false
	}
	if f.tdn != -2 && ev.TDN != f.tdn {
		return false
	}
	return ev.TS >= f.from && ev.TS < f.to
}

// lineScanner scans r by lines of up to 1 MiB, far beyond any trace record.
func lineScanner(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	return sc
}

// forEachEvent streams JSONL lines through fn; malformed lines abort with a
// line-numbered error.
func forEachEvent(r io.Reader, fn func(line []byte, ev *trace.Event) error) error {
	sc := lineScanner(r)
	var ev trace.Event
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		if err := trace.ParseLine(line, &ev); err != nil {
			return fmt.Errorf("line %d: %v", lineNo, err)
		}
		if err := fn(line, &ev); err != nil {
			return err
		}
	}
	return sc.Err()
}

func filterEvents(r io.Reader, w io.Writer, flt *filter) error {
	return forEachEvent(r, func(line []byte, ev *trace.Event) error {
		if !flt.match(ev) {
			return nil
		}
		if _, err := w.Write(line); err != nil {
			return err
		}
		_, err := w.Write([]byte{'\n'})
		return err
	})
}

// --- summary ---------------------------------------------------------------

type flowStat struct {
	events, retrans, rtoFires, tlps, sacks, caChanges, ccMD, switches int
}

type tdnStat struct {
	events, voqDrops, voqMarks, switches int
	days                                 int
}

func summarize(r io.Reader, w io.Writer, topN int) error {
	var (
		total     int
		firstTS   int64
		lastTS    int64
		byCatName = map[string]int{}
		flows     = map[int]*flowStat{}
		tdns      = map[int]*tdnStat{}
		droppers  = map[string]int{}
	)
	err := forEachEvent(r, func(_ []byte, ev *trace.Event) error {
		if total == 0 {
			firstTS = ev.TS
		}
		total++
		lastTS = ev.TS
		byCatName[ev.Cat+"/"+ev.Name]++

		if ev.Flow >= 0 {
			fs := flows[ev.Flow]
			if fs == nil {
				fs = &flowStat{}
				flows[ev.Flow] = fs
			}
			fs.events++
			switch ev.Name {
			case "retransmit":
				fs.retrans++
			case "rto_fire":
				fs.rtoFires++
			case "tlp":
				fs.tlps++
			case "sack":
				fs.sacks++
			case "ca_state":
				fs.caChanges++
			case "md", "rto":
				fs.ccMD++
			case "tdn_switch":
				fs.switches++
			}
		}
		if ev.TDN >= 0 {
			ts := tdns[ev.TDN]
			if ts == nil {
				ts = &tdnStat{}
				tdns[ev.TDN] = ts
			}
			ts.events++
			switch ev.Name {
			case "voq_drop":
				ts.voqDrops++
			case "voq_mark":
				ts.voqMarks++
			case "tdn_switch":
				ts.switches++
			case "day":
				ts.days++
			}
		}
		if ev.Name == "voq_drop" && ev.S != "" {
			droppers[ev.S]++
		}
		return nil
	})
	if err != nil {
		return err
	}
	if total == 0 {
		fmt.Fprintln(w, "no events")
		return nil
	}

	fmt.Fprintf(w, "events   %d over %.3f ms of virtual time [%d ns .. %d ns]\n",
		total, float64(lastTS-firstTS)/1e6, firstTS, lastTS)

	fmt.Fprintln(w, "\nby category/name")
	for _, k := range slices.Sorted(maps.Keys(byCatName)) {
		fmt.Fprintf(w, "  %-24s %d\n", k, byCatName[k])
	}

	if len(flows) > 0 {
		fmt.Fprintln(w, "\nper flow            events  retrans  rto  tlp   sack  ca-chg  cc-md  tdn-sw")
		for _, id := range slices.Sorted(maps.Keys(flows)) {
			fs := flows[id]
			fmt.Fprintf(w, "  flow %-4d       %8d %8d %4d %4d %6d %7d %6d %7d\n",
				id, fs.events, fs.retrans, fs.rtoFires, fs.tlps, fs.sacks, fs.caChanges, fs.ccMD, fs.switches)
		}
	}

	if len(tdns) > 0 {
		fmt.Fprintln(w, "\nper TDN             events    drops  marks   days  switches")
		for _, id := range slices.Sorted(maps.Keys(tdns)) {
			ts := tdns[id]
			fmt.Fprintf(w, "  tdn %-4d        %8d %8d %6d %6d %9d\n",
				id, ts.events, ts.voqDrops, ts.voqMarks, ts.days, ts.switches)
		}
	}

	if len(droppers) > 0 {
		type kv struct {
			k string
			v int
		}
		var top []kv
		for k, v := range droppers {
			top = append(top, kv{k, v})
		}
		sort.Slice(top, func(i, j int) bool {
			if top[i].v != top[j].v {
				return top[i].v > top[j].v
			}
			return top[i].k < top[j].k
		})
		if len(top) > topN {
			top = top[:topN]
		}
		fmt.Fprintf(w, "\ntop %d droppers (VOQ)\n", len(top))
		for _, e := range top {
			fmt.Fprintf(w, "  %-12s %d drops\n", e.k, e.v)
		}
	}
	return nil
}
