// Package mem provides the simulated flat address space shared by all
// simulated cores, plus typed array views through which benchmark kernels
// both perform real computation and report the memory accesses that drive
// the cache simulator.
//
// The allocator mimics the paper's experimental setup (§5.2): allocations
// are backed by 2MB "hugepages" and pages are distributed across the
// machine's DRAM links. Restricting the set of usable links reproduces the
// paper's numactl-based bandwidth control — all pages on one socket's
// DRAM = 25% bandwidth on the 4-socket Xeon, evenly interleaved = 100%.
package mem

import (
	"fmt"
	"math/bits"
)

// Addr is a simulated physical address.
type Addr uint64

// PageSize is the hugepage size used by the allocator, matching the 2MB
// Linux hugepages the paper pre-allocates.
const PageSize = 2 << 20

// Accessor receives the memory accesses performed by kernel code. It is
// implemented by the simulator's per-core execution context; array views
// call it once per element access (or per line for explicitly blocked
// kernels).
type Accessor interface {
	// Access records a read (write=false) or write (write=true) of the
	// given address; the simulator charges the accessing core's clock its
	// simulated cost.
	Access(a Addr, write bool)
}

// Space is a simulated address space with a bump allocator. It also owns
// the page→DRAM-link placement policy.
type Space struct {
	next      Addr
	links     int  // total links on the machine
	linksUsed int  // links the program's pages may occupy (bandwidth knob)
	pageSize  Addr // placement granularity
	pageShift uint // log2(pageSize)
	allocs    []alloc
}

type alloc struct {
	name string
	base Addr
	size int64
}

// NewSpace returns an empty address space for a machine with the given
// number of DRAM links, using linksUsed of them for page placement.
// linksUsed/links is the fraction of machine bandwidth available to the
// program (the paper's 25/50/75/100% settings on 4 links).
func NewSpace(links, linksUsed int) *Space {
	return NewSpacePaged(links, linksUsed, PageSize)
}

// NewSpacePaged is NewSpace with an explicit page size — the placement
// granularity. Scaled-down machines use proportionally smaller pages so
// that scaled inputs still spread across DRAM links the way multi-GB
// inputs spread across 2MB hugepages on the real machine.
func NewSpacePaged(links, linksUsed int, pageSize int64) *Space {
	if links < 1 || linksUsed < 1 || linksUsed > links {
		panic(fmt.Sprintf("mem: invalid link configuration %d used of %d", linksUsed, links))
	}
	if pageSize < 64 || pageSize&(pageSize-1) != 0 {
		panic(fmt.Sprintf("mem: page size %d must be a power of two >= 64", pageSize))
	}
	return &Space{
		// Leave page 0 unused so that Addr 0 never aliases an allocation.
		next: Addr(pageSize), links: links, linksUsed: linksUsed, pageSize: Addr(pageSize),
		pageShift: uint(bits.TrailingZeros64(uint64(pageSize))),
	}
}

// PageBytes returns the placement granularity.
func (s *Space) PageBytes() int64 { return int64(s.pageSize) }

// Links returns the total number of DRAM links.
func (s *Space) Links() int { return s.links }

// LinksUsed returns the number of links pages are spread over.
func (s *Space) LinksUsed() int { return s.linksUsed }

// Alloc reserves size bytes at a hugepage-aligned base address.
func (s *Space) Alloc(name string, size int64) Addr {
	if size <= 0 {
		panic(fmt.Sprintf("mem: Alloc(%q, %d): non-positive size", name, size))
	}
	base := s.next
	pages := (Addr(size) + s.pageSize - 1) / s.pageSize
	s.next += pages * s.pageSize
	s.allocs = append(s.allocs, alloc{name: name, base: base, size: size})
	return base
}

// Footprint returns the total bytes allocated so far.
func (s *Space) Footprint() int64 {
	var total int64
	for _, a := range s.allocs {
		total += a.size
	}
	return total
}

// LinkOf returns the DRAM link serving the page containing a. Pages are
// interleaved round-robin over the usable links, mirroring even
// distribution of hugepages over the allowed DRAM modules. It runs on
// every DRAM access and write-back, so the page number is a shift and,
// for a power-of-two link count, the link a mask; only three links (the
// 75% bandwidth setting) divide.
func (s *Space) LinkOf(a Addr) int {
	page, n := a>>s.pageShift, Addr(s.linksUsed)
	if n&(n-1) == 0 {
		return int(page & (n - 1))
	}
	return int(page % n)
}

// F64 is a view of a simulated array of float64. Element i lives at
// Base + 8*i. Views created by Sub share backing storage with the parent,
// so kernels can recurse on subranges without copying.
type F64 struct {
	Base Addr
	Data []float64
}

// NewF64 allocates an n-element float64 array.
func (s *Space) NewF64(name string, n int) F64 {
	return F64{Base: s.Alloc(name, int64(n)*8), Data: make([]float64, n)}
}

// Len returns the number of elements.
func (a F64) Len() int { return len(a.Data) }

// AddrOf returns the simulated address of element i.
func (a F64) AddrOf(i int) Addr { return a.Base + Addr(i)*8 }

// Read returns element i, reporting the access.
func (a F64) Read(acc Accessor, i int) float64 {
	acc.Access(a.AddrOf(i), false)
	return a.Data[i]
}

// Write sets element i, reporting the access.
func (a F64) Write(acc Accessor, i int, v float64) {
	acc.Access(a.AddrOf(i), true)
	a.Data[i] = v
}

// Sub returns the subarray [lo, hi).
func (a F64) Sub(lo, hi int) F64 {
	return F64{Base: a.AddrOf(lo), Data: a.Data[lo:hi]}
}

// Bytes returns the footprint of the view in bytes.
func (a F64) Bytes() int64 { return int64(len(a.Data)) * 8 }

// I64 is a view of a simulated array of int64 (8-byte elements), used for
// index arrays such as RRG's gather indices.
type I64 struct {
	Base Addr
	Data []int64
}

// NewI64 allocates an n-element int64 array.
func (s *Space) NewI64(name string, n int) I64 {
	return I64{Base: s.Alloc(name, int64(n)*8), Data: make([]int64, n)}
}

// Len returns the number of elements.
func (a I64) Len() int { return len(a.Data) }

// AddrOf returns the simulated address of element i.
func (a I64) AddrOf(i int) Addr { return a.Base + Addr(i)*8 }

// Read returns element i, reporting the access.
func (a I64) Read(acc Accessor, i int) int64 {
	acc.Access(a.AddrOf(i), false)
	return a.Data[i]
}

// Write sets element i, reporting the access.
func (a I64) Write(acc Accessor, i int, v int64) {
	acc.Access(a.AddrOf(i), true)
	a.Data[i] = v
}

// Sub returns the subarray [lo, hi).
func (a I64) Sub(lo, hi int) I64 {
	return I64{Base: a.AddrOf(lo), Data: a.Data[lo:hi]}
}

// Bytes returns the footprint of the view in bytes.
func (a I64) Bytes() int64 { return int64(len(a.Data)) * 8 }

// P2D is a view of a simulated array of 2-D points stored as interleaved
// 16-byte (x, y) records, used by the quad-tree benchmark. Reading or
// writing a point issues a single access to the record's address: a record
// never spans more than one 64-byte line boundary in a way that matters for
// the experiments, and one access per point matches the paper's
// array-of-structs layout.
type P2D struct {
	Base Addr
	X, Y []float64
}

// NewP2D allocates an n-point array.
func (s *Space) NewP2D(name string, n int) P2D {
	return P2D{Base: s.Alloc(name, int64(n)*16), X: make([]float64, n), Y: make([]float64, n)}
}

// Len returns the number of points.
func (a P2D) Len() int { return len(a.X) }

// AddrOf returns the simulated address of point i.
func (a P2D) AddrOf(i int) Addr { return a.Base + Addr(i)*16 }

// Read returns point i, reporting the access.
func (a P2D) Read(acc Accessor, i int) (x, y float64) {
	acc.Access(a.AddrOf(i), false)
	return a.X[i], a.Y[i]
}

// Write sets point i, reporting the access.
func (a P2D) Write(acc Accessor, i int, x, y float64) {
	acc.Access(a.AddrOf(i), true)
	a.X[i] = x
	a.Y[i] = y
}

// Sub returns the subarray [lo, hi).
func (a P2D) Sub(lo, hi int) P2D {
	return P2D{Base: a.AddrOf(lo), X: a.X[lo:hi], Y: a.Y[lo:hi]}
}

// Bytes returns the footprint of the view in bytes.
func (a P2D) Bytes() int64 { return int64(len(a.X)) * 16 }
