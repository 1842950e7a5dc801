// Package serve is the concurrency-check fixture: each struct isolates one
// of the two rules (guard consistency, blocking under a mutex) with a
// positive and a negative shape.
package serve

import "sync"

// --- inconsistent mutex guards ----------------------------------------------

type Store struct {
	mu   sync.Mutex
	n    int
	jobs map[string]int
}

// New touches the fields before the value is shared: constructors are exempt.
func New() *Store {
	s := &Store{jobs: map[string]int{}}
	s.n = 1
	return s
}

func (s *Store) Set(v int) {
	s.mu.Lock()
	s.n = v
	s.jobs["latest"] = v
	s.mu.Unlock()
}

func (s *Store) Peek() int {
	return s.n // want "Store.n is written under the mutex on other paths but accessed without it here"
}

func (s *Store) Reset() {
	s.jobs = nil // want "Store.jobs is written under the mutex on other paths but accessed without it here"
}

// bumpLocked is called with the mutex held: the naming convention marks the
// whole body as guarded.
func (s *Store) bumpLocked() { s.n++ }

// Cache's entries are written only inside a *Locked method, which runs with
// the mutex held: that write alone makes entries a guarded field.
type Cache struct {
	mu      sync.Mutex
	entries map[string]int
}

func (c *Cache) addLocked(k string, v int) { c.entries[k] = v }

func (c *Cache) Add(k string, v int) {
	c.mu.Lock()
	c.addLocked(k, v)
	c.mu.Unlock()
}

func (c *Cache) Get(k string) (int, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.entries[k]
	return v, ok
}

func (c *Cache) Has(k string) bool {
	_, ok := c.entries[k] // want "Cache.entries is written under the mutex on other paths but accessed without it here"
	return ok
}

// --- blocking calls while holding a mutex -----------------------------------

type Blocky struct {
	mu sync.Mutex
	ch chan struct{}
}

func (b *Blocky) bad() {
	b.mu.Lock()
	<-b.ch // want "channel receive while holding a mutex"
	b.mu.Unlock()
}

// ok performs a nonblocking try-send: select with a default never parks.
func (b *Blocky) ok() {
	b.mu.Lock()
	select {
	case b.ch <- struct{}{}:
	default:
	}
	b.mu.Unlock()
}

func (b *Blocky) wait(wg *sync.WaitGroup) {
	b.mu.Lock()
	defer b.mu.Unlock()
	wg.Wait() // want "sync Wait while holding a mutex"
}

// after the unlock, blocking is fine.
func (b *Blocky) sequenced() {
	b.mu.Lock()
	b.mu.Unlock()
	<-b.ch
}
