// Package sim is the determinism-check fixture: it mixes forbidden
// wall-clock, global-rand, goroutine, and map-iteration constructs with
// their deterministic replacements.
package sim

import (
	"math/rand"
	"sort"
	"sync"
	"time"
)

var framePool = sync.Pool{ // want "sync.Pool in a deterministic package"
	New: func() interface{} { return make([]byte, 0, 64) },
}

// ownedFreeList is the deterministic replacement: a plain LIFO slice whose
// reuse order depends only on event order. Allowed.
type ownedFreeList struct {
	free [][]byte
}

type loop struct {
	rng     *rand.Rand
	started time.Time
	delay   time.Duration
	bufs    ownedFreeList
}

func newLoop(seed int64) *loop {
	return &loop{
		rng:     rand.New(rand.NewSource(seed)), // seeded constructor: allowed
		started: time.Now(),                     // want "time.Now in a deterministic package"
		delay:   10 * time.Millisecond,          // duration arithmetic: allowed
	}
}

func (l *loop) run(weights map[string]int) {
	_ = time.Since(l.started) // want "time.Since in a deterministic package"
	_ = rand.Intn(10)         // want "global math/rand.Intn"
	_ = l.rng.Intn(10)        // method on a seeded generator: allowed

	go l.step("x") // want "go statement in a deterministic package"

	for name := range weights { // want "range over a map in a deterministic package"
		l.step(name)
	}

	keys := []string{"b", "a"}
	sort.Strings(keys)
	for _, name := range keys { // slice iteration: allowed
		l.step(name)
	}
}

func (l *loop) step(string) {}
