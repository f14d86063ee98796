package mem

import (
	"testing"
	"testing/quick"
)

// countingAcc records accesses for assertions.
type countingAcc struct {
	reads, writes int
	last          Addr
}

func (c *countingAcc) Access(a Addr, write bool) {
	if write {
		c.writes++
	} else {
		c.reads++
	}
	c.last = a
}

func TestAllocAlignmentAndDisjointness(t *testing.T) {
	s := NewSpace(4, 4)
	a := s.Alloc("a", 100)
	b := s.Alloc("b", PageSize+1)
	c := s.Alloc("c", 8)
	for _, base := range []Addr{a, b, c} {
		if base%PageSize != 0 {
			t.Errorf("allocation base %#x not hugepage aligned", base)
		}
		if base == 0 {
			t.Error("allocation at address 0")
		}
	}
	if b < a+PageSize {
		t.Errorf("b (%#x) overlaps a (%#x)", b, a)
	}
	if c < b+2*PageSize {
		t.Errorf("c (%#x) overlaps b (%#x, 2 pages)", c, b)
	}
	if got := s.Footprint(); got != 100+PageSize+1+8 {
		t.Errorf("Footprint = %d", got)
	}
}

func TestAllocPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Alloc(0) did not panic")
		}
	}()
	NewSpace(1, 1).Alloc("bad", 0)
}

func TestNewSpaceValidation(t *testing.T) {
	for _, c := range []struct{ links, used int }{{0, 0}, {4, 0}, {4, 5}, {0, 1}} {
		func() {
			defer func() { recover() }()
			NewSpace(c.links, c.used)
			t.Errorf("NewSpace(%d,%d) did not panic", c.links, c.used)
		}()
	}
}

func TestLinkOfInterleavesPages(t *testing.T) {
	s := NewSpace(4, 4)
	counts := make([]int, 4)
	for p := 0; p < 400; p++ {
		counts[s.LinkOf(Addr(p)*PageSize+123)]++
	}
	for l, n := range counts {
		if n != 100 {
			t.Errorf("link %d got %d pages, want 100", l, n)
		}
	}
	// Same page → same link regardless of offset.
	if s.LinkOf(PageSize) != s.LinkOf(PageSize+PageSize-1) {
		t.Error("offsets within one page mapped to different links")
	}
}

func TestLinkOfRestricted(t *testing.T) {
	s := NewSpace(4, 1) // 25% bandwidth configuration
	for p := 0; p < 64; p++ {
		if got := s.LinkOf(Addr(p) * PageSize); got != 0 {
			t.Fatalf("restricted space placed page %d on link %d", p, got)
		}
	}
	s2 := NewSpace(4, 2) // 50%
	for p := 0; p < 64; p++ {
		if got := s2.LinkOf(Addr(p) * PageSize); got > 1 {
			t.Fatalf("2-link space placed page %d on link %d", p, got)
		}
	}
}

// TestLinkOfMatchesDivision pins LinkOf's shift-and-mask placement to the
// division it replaces, (a / pageSize) % linksUsed, for 1–4 links of 4 and
// every power-of-two page size from 64 B to 2 MB, at addresses around page
// and link-cycle boundaries and above 2^40.
func TestLinkOfMatchesDivision(t *testing.T) {
	for used := 1; used <= 4; used++ {
		for page := int64(64); page <= PageSize; page <<= 1 {
			s := NewSpacePaged(4, used, page)
			ps := Addr(page)
			check := func(a Addr) bool {
				if got, want := s.LinkOf(a), int((a/ps)%Addr(used)); got != want {
					t.Errorf("links=%d page=%d: LinkOf(%#x) = %d, want %d", used, page, a, got, want)
					return false
				}
				return true
			}
			for _, base := range []Addr{0, 1 << 40, 1<<40 + 7*ps, 1 << 52, ^Addr(0) - 13*ps} {
				for p := Addr(0); p < 13; p++ {
					for _, off := range []Addr{0, 1, ps / 2, ps - 1} {
						check(base + p*ps + off)
					}
				}
			}
			if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
				t.Error(err)
			}
		}
	}
}

func TestF64ReadWrite(t *testing.T) {
	s := NewSpace(1, 1)
	a := s.NewF64("xs", 16)
	acc := &countingAcc{}
	a.Write(acc, 3, 42.5)
	if got := a.Read(acc, 3); got != 42.5 {
		t.Errorf("Read = %v, want 42.5", got)
	}
	if acc.reads != 1 || acc.writes != 1 {
		t.Errorf("accesses = %d reads, %d writes; want 1,1", acc.reads, acc.writes)
	}
	if acc.last != a.Base+24 {
		t.Errorf("last access %#x, want %#x", acc.last, a.Base+24)
	}
	if a.Len() != 16 || a.Bytes() != 128 {
		t.Errorf("Len/Bytes = %d/%d", a.Len(), a.Bytes())
	}
}

func TestF64SubSharesBacking(t *testing.T) {
	s := NewSpace(1, 1)
	a := s.NewF64("xs", 10)
	sub := a.Sub(4, 8)
	acc := &countingAcc{}
	sub.Write(acc, 0, 7)
	if a.Data[4] != 7 {
		t.Error("Sub does not share backing storage")
	}
	if sub.AddrOf(0) != a.AddrOf(4) {
		t.Errorf("Sub base %#x, want %#x", sub.AddrOf(0), a.AddrOf(4))
	}
	if sub.Len() != 4 {
		t.Errorf("Sub len = %d, want 4", sub.Len())
	}
}

func TestI64(t *testing.T) {
	s := NewSpace(2, 2)
	a := s.NewI64("idx", 8)
	acc := &countingAcc{}
	a.Write(acc, 7, -5)
	if got := a.Read(acc, 7); got != -5 {
		t.Errorf("I64 round trip = %d", got)
	}
	sub := a.Sub(6, 8)
	if got := sub.Read(acc, 1); got != -5 {
		t.Errorf("I64 sub read = %d", got)
	}
	if a.AddrOf(1)-a.AddrOf(0) != 8 {
		t.Error("I64 stride != 8")
	}
}

func TestP2D(t *testing.T) {
	s := NewSpace(1, 1)
	p := s.NewP2D("pts", 4)
	acc := &countingAcc{}
	p.Write(acc, 2, 1.5, -2.5)
	x, y := p.Read(acc, 2)
	if x != 1.5 || y != -2.5 {
		t.Errorf("P2D round trip = (%v,%v)", x, y)
	}
	if p.AddrOf(1)-p.AddrOf(0) != 16 {
		t.Error("P2D stride != 16")
	}
	sub := p.Sub(1, 3)
	if sub.Len() != 2 || sub.AddrOf(0) != p.AddrOf(1) {
		t.Error("P2D Sub wrong")
	}
	if p.Bytes() != 64 {
		t.Errorf("P2D bytes = %d", p.Bytes())
	}
}

func TestAddrOfLinearProperty(t *testing.T) {
	f := func(n8 uint8, i8 uint8) bool {
		n := int(n8%100) + 2
		i := int(i8) % n
		s := NewSpace(1, 1)
		a := s.NewF64("x", n)
		return a.AddrOf(i) == a.Base+Addr(8*i)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
