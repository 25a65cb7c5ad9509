package main

import (
	"fmt"
	"syscall"
	"unsafe"
)

// offHeap returns n zeroed values of a pointer-free type T backed by
// an anonymous mapping instead of the Go heap. The benchmark keeps its
// samples and spans there because the systems under test hold only a
// few MiB live: at that size the collector's pace is set by the live
// heap, and a few MiB of bookkeeping on the heap was measured to speed
// asks up by a quarter (fewer collections), which made the traced run
// look faster than the untraced one. The mapping is never unmapped:
// untouched pages cost nothing and a run is one process.
func offHeap[T any](n int) ([]T, error) {
	var zero T
	b, err := syscall.Mmap(-1, 0, n*int(unsafe.Sizeof(zero)),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mapping %d bytes for samples: %w", n*int(unsafe.Sizeof(zero)), err)
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n), nil
}
