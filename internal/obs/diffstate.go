package obs

import (
	"fmt"
	"reflect"
)

// DiffState walks got and want in step and returns the paths at which they
// differ: the reopen tests' check that an object reinitialised over its old
// storage is what its constructor returns. It compares what behaviour can
// depend on: scalars, slice lengths and contents, and what pointers and
// interfaces lead to, each pointer once. Funcs are skipped (bound callbacks
// and hooks are per instance), as are slice capacities (storage, not state)
// and values of the types in skip, which the two share rather than own (a
// loop, a pool). A map or channel is reported, not compared, so that one
// cannot join the state unseen.
func DiffState(got, want any, skip ...reflect.Type) []string {
	var diffs []string
	seen := map[uintptr]bool{}
	var walk func(path string, g, w reflect.Value)
	walk = func(path string, g, w reflect.Value) {
		if g.Type() != w.Type() {
			diffs = append(diffs, fmt.Sprintf("%s: type %s, want %s", path, g.Type(), w.Type()))
			return
		}
		for _, t := range skip {
			if g.Type() == t {
				return
			}
		}
		switch g.Kind() {
		case reflect.Func:
		case reflect.Bool:
			if g.Bool() != w.Bool() {
				diffs = append(diffs, fmt.Sprintf("%s: %v, want %v", path, g.Bool(), w.Bool()))
			}
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			if g.Int() != w.Int() {
				diffs = append(diffs, fmt.Sprintf("%s: %d, want %d", path, g.Int(), w.Int()))
			}
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
			if g.Uint() != w.Uint() {
				diffs = append(diffs, fmt.Sprintf("%s: %d, want %d", path, g.Uint(), w.Uint()))
			}
		case reflect.Float32, reflect.Float64:
			if g.Float() != w.Float() {
				diffs = append(diffs, fmt.Sprintf("%s: %v, want %v", path, g.Float(), w.Float()))
			}
		case reflect.String:
			if g.String() != w.String() {
				diffs = append(diffs, fmt.Sprintf("%s: %q, want %q", path, g.String(), w.String()))
			}
		case reflect.Struct:
			for i := 0; i < g.NumField(); i++ {
				walk(path+"."+g.Type().Field(i).Name, g.Field(i), w.Field(i))
			}
		case reflect.Slice, reflect.Array:
			if g.Len() != w.Len() {
				diffs = append(diffs, fmt.Sprintf("%s: length %d, want %d", path, g.Len(), w.Len()))
				return
			}
			for i := 0; i < g.Len(); i++ {
				walk(fmt.Sprintf("%s[%d]", path, i), g.Index(i), w.Index(i))
			}
		case reflect.Pointer, reflect.Interface:
			if g.IsNil() != w.IsNil() {
				diffs = append(diffs, fmt.Sprintf("%s: nil %v, want nil %v", path, g.IsNil(), w.IsNil()))
				return
			}
			if g.IsNil() {
				return
			}
			if g.Kind() == reflect.Pointer {
				if seen[g.Pointer()] {
					return
				}
				seen[g.Pointer()] = true
			}
			walk(path, g.Elem(), w.Elem())
		default:
			diffs = append(diffs, fmt.Sprintf("%s: kind %s is not compared", path, g.Kind()))
		}
	}
	walk(reflect.TypeOf(got).String(), reflect.ValueOf(got), reflect.ValueOf(want))
	return diffs
}
