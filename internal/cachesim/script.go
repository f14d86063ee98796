package cachesim

import (
	"repro/internal/mem"
	"repro/internal/opcode"
)

// RunScript is the replay fast path: it advances a recorded op stream
// (see internal/dagtrace) for leaf, processing work charges and accesses
// that hit the innermost cache, and hands control back the moment an
// access misses the innermost cache (nip names that op, not yet consumed —
// the caller routes it through the general Access walk) or the op just
// processed drove budget to zero or below (the caller's chunk boundary).
// Keeping the loop here, next to the cache state, is what the fast path
// exists for: one call interprets a whole run of inner hits with no per-op
// function-call overhead.
//
// Every state transition matches Access op for op: an innermost hit is
// found by scanning the set from its MRU end (recently used lines sit in
// the first way or two), moves its line to the front, counts a hit and
// propagates write dirt to the outermost resident copy; a work op only
// spends cycles. The budget is decremented after each op exactly where
// wctx.spend checks its chunk budget, so callers observe boundaries on the
// same op as unscripted execution. The hit counter accumulates in a local
// flushed before every return; nothing else can touch this cache while the
// run is in progress (the engine serializes accesses, and the run's own
// hits never evict).
//
// miss reports why the run stopped: true means nip is an access that
// misses the innermost cache, false means the budget ran out or the stream
// ended.
//
//schedlint:hotpath
func (h *Hierarchy) RunScript(leaf int, ops []byte, ip, end, prev, budget int64) (nip, nprev, spent int64, miss bool) {
	inner := h.nl - 1
	c := h.paths[leaf][inner]
	shift := c.blockShift
	hit := h.hitCost[inner]
	markOuter := inner > 1
	var hits int64
	for ip < end {
		// Peek-decode the uvarint op: ip commits only once the op is
		// known to be processable here.
		v := uint64(ops[ip])
		n := int64(1)
		if v >= 0x80 {
			v &= 0x7f
			s := uint(7)
			for {
				b := ops[ip+n]
				n++
				v |= uint64(b&0x7f) << s
				if b < 0x80 {
					break
				}
				s += 7
			}
		}
		var cost int64
		if tag := v & opcode.TagMask; tag == opcode.Work {
			cost = int64(v >> opcode.TagBits)
		} else {
			u := v >> opcode.TagBits
			a := prev + (int64(u>>1) ^ -int64(u&1))
			base, way := c.find(uint64(a) >> shift)
			if way < 0 {
				break
			}
			write := tag == opcode.Write
			c.touch(base, way, write)
			hits++
			if write && markOuter {
				h.markDirtyOuter(leaf, mem.Addr(a))
			}
			prev = a
			cost = hit
		}
		ip += n
		spent += cost
		budget -= cost
		if budget <= 0 {
			c.Stats.Hits += hits
			return ip, prev, spent, false
		}
	}
	c.Stats.Hits += hits
	return ip, prev, spent, ip < end
}
