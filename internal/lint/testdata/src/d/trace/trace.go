// Package trace mirrors the real trace package's shape: the metricname check
// keys on the package name and the Registry type name, so fixtures exercise
// it without importing the real module.
package trace

// Registry accumulates named metrics.
type Registry struct{}

// Add increments the named counter.
func (r *Registry) Add(name string, delta int64) {}

// Set records the named gauge.
func (r *Registry) Set(name string, v float64) {}

// Histogram mirrors the real zero-alloc histogram's shape.
type Histogram struct{}

// Hist returns a handle on the named histogram.
func (r *Registry) Hist(name string) *Histogram { return nil }
