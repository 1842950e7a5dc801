// Command tdlint runs the repository's static analyzer suite over Go package
// patterns and reports contract violations that neither the compiler, go vet
// nor a test catches: determinism, concurrency discipline, sim-time unit
// hygiene, and enum-switch exhaustiveness (see internal/lint).
//
// Usage:
//
//	tdlint [-json] [-checks list] [-list] [-C dir] [packages...]
//
// -list prints the registered checks and exits; an unknown name in -checks
// is an invocation error naming the valid set. Exit status is 0 when the
// tree is clean, 1 when findings are reported, and 2 when the packages fail
// to load or the invocation is invalid.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/rdcn-net/tdtcp/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tdlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array")
	checksFlag := fs.String("checks", "", "comma-separated subset of checks to run (default: all)")
	listFlag := fs.Bool("list", false, "list the registered checks and exit")
	dir := fs.String("C", ".", "module directory to resolve package patterns in")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: tdlint [flags] [packages]\n\nChecks:\n")
		for _, c := range lint.All() {
			fmt.Fprintf(stderr, "  %-12s %s\n", c.Name, c.Doc)
		}
		fmt.Fprintf(stderr, "\nFlags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *listFlag {
		for _, c := range lint.All() {
			fmt.Fprintf(stdout, "%-12s %s\n", c.Name, c.Doc)
		}
		return 0
	}
	checks, err := lint.Select(*checksFlag)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	prog, err := lint.Load(*dir, fs.Args()...)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	diags := lint.Run(prog, checks)
	if *jsonOut {
		if err := lint.WriteJSON(stdout, diags); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	} else {
		lint.WriteText(stdout, diags)
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}
