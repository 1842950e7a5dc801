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
// Four constants were taken at the commit before Result's series stopped at
// PlotWeeks and did not move with it. The faults one was re-taken: its two
// checked 2+8-week runs print invariant-checks, the checker sweeps after every
// eighth event, and the Seq sampler's 1 400 ticks past week 3 are no longer
// events (4835 -> 4660 and 4947 -> 4772 sweeps); no other byte of it differs.
func TestExamplesOutputPinned(t *testing.T) {
	for _, ex := range []struct{ name, want string }{
		{"faults", "0fdbdeb3ce40b9ee8689358e7caf7e04fcd17441b4a5cb49acbdd39bf27d44f3"},
		{"hybrid-rdcn", "8c080612c91bed400c05bd710e8b83d44989d9d88195ea35cd46dad5a796adf3"},
		{"quickstart", "f661ddd6f77f886124512100d79dfc22684881778f526d8ea88b001567c17db6"},
		{"reordering", "e5a0b6995640bc5962904f14413dbe6592064522be5c2c8d05036d9c14601733"},
		{"satellite", "2b71e2a455aa3be848145a08ab36a3a41c2ea1d11f2d88125a53fd97e0688b41"},
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
