package cachesim

import (
	"repro/internal/mem"
	"repro/internal/opcode"
)

// RunScript is the replay fast path: it advances a recorded op stream
// (see internal/dagtrace) for leaf, starting at simulated time now, until
// the stream ends or the op just processed drove budget to zero or below
// (the caller's chunk boundary). Keeping the loop here, next to the cache
// state, is what the fast path exists for: one call interprets a whole run
// of ops with no per-op function-call overhead.
//
// Every state transition matches Access op for op. A work op only spends
// cycles. An access probes the innermost cache; a hit moves its line to
// the front, counts a hit and propagates write dirt to the outermost
// resident copy, and a miss takes the outer walk (miss) at now plus the
// cycles spent so far, from the set base that the probe found. The budget
// is decremented after each op, so the call stops on the op whose cost
// exhausts it, as a caller charging each op's Access cost in turn would.
// A budget of one cycle therefore runs one op (ops of zero cost aside).
// The innermost hit counter accumulates in a local flushed
// before the return; the outer walk never reads it.
//
// A write hit skips the outermost dirty mark when it falls in the
// outermost line that the call marked last and no miss walk ran since:
// until the next miss only the call's own innermost hits touch the
// caches, and a hit moves no outermost line, so that line's residency and
// dirty bit are as the last mark left them. The memo is keyed by the
// outermost level's line, not the innermost one, because levels may have
// different block sizes.
//
//schedlint:hotpath
func (h *Hierarchy) RunScript(leaf int, ops []byte, ip, end, prev, now, budget int64) (nip, nprev, spent int64) {
	path := h.paths[leaf]
	inner := h.nl - 1
	c := path[inner]
	shift := c.blockShift
	hit := h.hitCost[inner]
	markOuter := inner > 1
	outerShift := path[1].blockShift
	marked := ^uint64(0) // outermost line marked dirty last; none yet
	var hits int64
	for ip < end {
		v := uint64(ops[ip])
		ip++
		if v >= 0x80 {
			v &= 0x7f
			for s := uint(7); ; s += 7 {
				b := ops[ip]
				ip++
				v |= uint64(b&0x7f) << s
				if b < 0x80 {
					break
				}
			}
		}
		var cost int64
		if tag := v & opcode.TagMask; tag == opcode.Work {
			cost = int64(v >> opcode.TagBits)
		} else {
			u := v >> opcode.TagBits
			prev += int64(u>>1) ^ -int64(u&1)
			write := tag == opcode.Write
			if base, way := c.find(uint64(prev) >> shift); way >= 0 {
				c.touch(base, way, write)
				hits++
				if write && markOuter {
					if ol := uint64(prev) >> outerShift; ol != marked {
						h.markDirtyOuter(leaf, mem.Addr(prev))
						marked = ol
					}
				}
				cost = hit
			} else {
				cost, _ = h.miss(leaf, now+spent, mem.Addr(prev), write, base)
				marked = ^uint64(0)
			}
		}
		spent += cost
		budget -= cost
		if budget <= 0 {
			break
		}
	}
	c.Stats.Hits += hits
	return ip, prev, spent
}
