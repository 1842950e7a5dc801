// Package stats is the result-path fixture: statistics over a run's samples
// sit inside the determinism boundary, so summing a map in its iteration
// order, whose float rounding follows that order, is a finding.
package stats

import (
	"maps"
	"slices"
)

// Mean averages samples keyed by flow.
func Mean(byFlow map[int]float64) float64 {
	var sum float64
	for _, v := range byFlow { // want "range over a map in a deterministic package"
		sum += v
	}
	return sum / float64(len(byFlow))
}

// SortedMean is the deterministic replacement: the keys in order first.
func SortedMean(byFlow map[int]float64) float64 {
	var sum float64
	for _, k := range slices.Sorted(maps.Keys(byFlow)) {
		sum += byFlow[k]
	}
	return sum / float64(len(byFlow))
}
