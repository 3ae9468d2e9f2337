// Package keytest holds the reflection walk behind the key-coverage
// tests: a structural cache key must change when any field of what it
// covers changes, so a new field cannot be added without joining the
// key (or the test failing).
package keytest

import (
	"reflect"
	"strconv"
	"testing"
)

// LeafPaths lists the index path of every scalar reachable from v,
// descending into struct fields and into slice elements.
func LeafPaths(v reflect.Value, prefix []int) [][]int {
	switch v.Kind() {
	case reflect.Struct:
		var out [][]int
		for i := 0; i < v.NumField(); i++ {
			out = append(out, LeafPaths(v.Field(i), append(append([]int(nil), prefix...), i))...)
		}
		return out
	case reflect.Slice:
		var out [][]int
		for i := 0; i < v.Len(); i++ {
			out = append(out, LeafPaths(v.Index(i), append(append([]int(nil), prefix...), i))...)
		}
		return out
	default:
		return [][]int{prefix}
	}
}

// Bump changes the scalar at path inside the addressable value v and
// returns the path's field names for messages.
func Bump(t testing.TB, v reflect.Value, path []int) string {
	t.Helper()
	name := v.Type().Name()
	for _, i := range path {
		if v.Kind() == reflect.Slice {
			v = v.Index(i)
			name += "[" + strconv.Itoa(i) + "]"
		} else {
			name += "." + v.Type().Field(i).Name
			v = v.Field(i)
		}
	}
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float64:
		v.SetFloat(v.Float() + 0.5)
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.String:
		v.SetString(v.String() + "x")
	default:
		t.Fatalf("%s: no perturbation for kind %v", name, v.Kind())
	}
	return name
}

// CheckEveryField perturbs each scalar field of fresh() in turn and
// requires key to change. fresh must return an independent value with
// every slice non-empty, so slice elements are walked too.
func CheckEveryField[T any, K comparable](t testing.TB, fresh func() T, key func(T) K) {
	t.Helper()
	base := fresh()
	want := key(base)
	paths := LeafPaths(reflect.ValueOf(base), nil)
	if len(paths) == 0 {
		t.Fatalf("%T has no fields to perturb", base)
	}
	for _, path := range paths {
		x := fresh()
		name := Bump(t, reflect.ValueOf(&x).Elem(), path)
		if key(x) == want {
			t.Errorf("perturbing %s leaves the key unchanged", name)
		}
	}
}
