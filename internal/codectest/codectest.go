// Package codectest holds the teeth the hand-rolled codecs' tests share. A
// reflective codec picks up a new struct field for free; a hand-rolled one
// silently drops it. Fill gives every leaf field of a value a distinct
// non-zero value, so a round trip that forgets a field cannot compare equal,
// and EachLeaf lets a test knock the leaves out one at a time to prove the
// comparison notices each of them.
package codectest

import (
	"fmt"
	"reflect"
)

var byteSlice = reflect.TypeOf([]byte(nil))

// walk visits every leaf under v: it descends through structs and through
// slices other than []byte (sizing them to two elements first when grow is
// set), and calls leaf with each remaining value and its path.
func walk(path string, v reflect.Value, grow bool, leaf func(path string, v reflect.Value)) {
	switch {
	case v.Kind() == reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			name := v.Type().Field(i).Name
			if path != "" {
				name = path + "." + name
			}
			walk(name, v.Field(i), grow, leaf)
		}
	case v.Kind() == reflect.Slice && v.Type() != byteSlice:
		if grow {
			v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		}
		for i := 0; i < v.Len(); i++ {
			walk(fmt.Sprintf("%s[%d]", path, i), v.Index(i), grow, leaf)
		}
	default:
		leaf(path, v)
	}
}

// Fill sets every leaf reachable from the struct p points to — through nested
// structs and slices, which get two elements — to a value that is non-zero
// and differs from every other leaf's. It panics on a kind it does not know,
// so a field of a new kind cannot slip past the codec tests unfilled.
func Fill(p any) {
	n := uint64(0)
	walk("", reflect.ValueOf(p).Elem(), true, func(path string, v reflect.Value) {
		n++
		switch v.Kind() {
		case reflect.Bool:
			v.SetBool(true)
		case reflect.Uint8:
			v.SetUint(n)
		case reflect.Uint, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			v.SetUint(n * 300) // wider than one varint byte
		case reflect.Int, reflect.Int16, reflect.Int32, reflect.Int64:
			v.SetInt(int64(n) * 300)
		case reflect.String:
			v.SetString(fmt.Sprintf("s%d", n))
		case reflect.Slice: // []byte
			v.SetBytes([]byte{byte(n), byte(n + 1)})
		default:
			panic(fmt.Sprintf("codectest: no fill for %s (kind %s)", path, v.Kind()))
		}
	})
}

// EachLeaf calls f once per leaf reachable from the struct p points to, with
// the leaf's path ("Msg.Entries[1].Term") and its settable value.
func EachLeaf(p any, f func(path string, leaf reflect.Value)) {
	walk("", reflect.ValueOf(p).Elem(), false, f)
}
