package tdtcp

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestExamplesOutputPinned runs each of the five examples/ mains the way the
// README tells a reader to (`go run ./examples/<name>`, which needs no network:
// the module has no dependencies) and compares its stdout to a pinned sha256.
// The examples are the library path — everything they print comes through the
// facade in tdtcp.go — so a change that moves a number a library user would
// see, or reshapes a type the facade re-exports (hybrid-rdcn prints the plotted
// series' endpoints and the VOQ mean/max), fails here. It runs under plain
// `go test ./...`; ci.sh's own `go build ./...` only compiles the examples, so
// this test is what makes ci.sh run them.
//
// CHANGES.md records every move of a constant.
func TestExamplesOutputPinned(t *testing.T) {
	for _, ex := range []struct{ name, want string }{
		{"faults", "eba0b549891462336002d06f079ab5ddfed7895e49fc4ede5ca8930ea65f5c28"},
		{"hybrid-rdcn", "8c080612c91bed400c05bd710e8b83d44989d9d88195ea35cd46dad5a796adf3"},
		{"quickstart", "24615df6d46eb12dbe31632885a8271aab575cd3a0c171d2e9d1778b9773ac09"},
		{"reordering", "e5a0b6995640bc5962904f14413dbe6592064522be5c2c8d05036d9c14601733"},
		{"satellite", "b6e16e8413489dabf01028d895d00e91e163d9a154a18ed6474c1911ff5edfdd"},
	} {
		t.Run(ex.name, func(t *testing.T) {
			cmd := exec.Command("go", "run", "./examples/"+ex.name)
			cmd.Env = append(os.Environ(), "GOPROXY=off")
			var stderr strings.Builder
			cmd.Stderr = &stderr
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("go run ./examples/%s: %v\n%s", ex.name, err, stderr.String())
			}
			sum := sha256.Sum256(out)
			if got := hex.EncodeToString(sum[:]); got != ex.want {
				t.Errorf("stdout changed (%d bytes):\n got %s\nwant %s\n%s", len(out), got, ex.want, out)
			}
		})
	}
}
