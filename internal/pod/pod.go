// Package pod provides zero-copy reinterpretation between slices of
// fixed-size plain-old-data records and raw bytes.
//
// The out-of-core engine stores vertices, edges and updates as fixed-size
// native-endian records. Rather than forcing every algorithm to implement an
// encoder, any pointer-free struct can be written to and read from storage
// directly. This mirrors the original X-Stream, which likewise wrote raw
// structs to its partition files.
//
// Types used with this package must not contain pointers, maps, slices,
// channels, functions or interfaces: Check (or CheckType) enforces this at
// setup time so misuse fails loudly rather than corrupting files.
package pod

import (
	"fmt"
	"reflect"
	"unsafe"
)

// Size returns the in-memory size in bytes of one record of type T,
// including any compiler-inserted padding.
func Size[T any]() int {
	var v T
	return int(unsafe.Sizeof(v))
}

// Check verifies that T is a valid POD record type: fixed size and free of
// pointers. It returns an error describing the first offending field.
func Check[T any]() error {
	var v T
	return CheckType(reflect.TypeOf(v))
}

// CheckType is the non-generic form of Check.
func CheckType(t reflect.Type) error {
	if t == nil {
		return fmt.Errorf("pod: nil type")
	}
	return checkType(t, t.String())
}

func checkType(t reflect.Type, path string) error {
	switch t.Kind() {
	case reflect.Bool,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Uintptr, reflect.Float32, reflect.Float64,
		reflect.Complex64, reflect.Complex128:
		return nil
	case reflect.Array:
		return checkType(t.Elem(), path+"[i]")
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if err := checkType(f.Type, path+"."+f.Name); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("pod: %s has kind %s, which cannot be stored as a raw record", path, t.Kind())
	}
}

// AsBytes reinterprets a slice of records as its backing bytes without
// copying. The returned slice aliases s.
func AsBytes[T any](s []T) []byte {
	if len(s) == 0 {
		return nil
	}
	n := len(s) * Size[T]()
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), n)
}

// Equal reports whether two records hold the same bytes, padding included:
// a record copied field by field may differ in its padding alone, which
// Equal reports as a difference.
func Equal[T any](a, b *T) bool {
	n := Size[T]()
	return string(unsafe.Slice((*byte)(unsafe.Pointer(a)), n)) ==
		string(unsafe.Slice((*byte)(unsafe.Pointer(b)), n))
}

// FromBytes reinterprets raw bytes as a slice of records without copying.
// len(b) must be a multiple of Size[T](); FromBytes panics otherwise, since
// a partial trailing record always indicates file corruption or a caller
// bug, never a recoverable condition.
func FromBytes[T any](b []byte) []T {
	if len(b) == 0 {
		return nil
	}
	sz := Size[T]()
	if len(b)%sz != 0 {
		panic(fmt.Sprintf("pod: byte slice length %d is not a multiple of record size %d", len(b), sz))
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), len(b)/sz)
}
