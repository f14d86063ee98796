// Package opcode defines the strand op-stream bytecode shared by the
// dagtrace recorder (which emits it), the sim engine (which captures a live
// strand's ops in it) and the engine's interpreter (which executes every
// strand's ops through cachesim.RunScript). It lives below those packages
// because dagtrace imports sim for the listener interfaces, so sim cannot
// import dagtrace back.
//
// Every op is one uvarint whose low TagBits bits are the tag. Reads and
// writes carry a zigzag address delta against the strand's previous
// address (starting at 0); work ops carry the cycle count.
package opcode

const (
	Read  = 0
	Write = 1
	Work  = 2

	TagBits = 2
	TagMask = 1<<TagBits - 1
)

// Zigzag maps signed deltas to unsigned so small magnitudes of either
// sign encode in few bytes.
func Zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// Unzigzag inverts Zigzag.
func Unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// AppendUvarint is binary.AppendUvarint without the interface
// indirection, kept here so the recorder's per-access path stays
// inlinable.
func AppendUvarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

// Uvarint is the canonical decoder for AppendUvarint's output, with
// binary.Uvarint's contract: it returns the value and the number of bytes
// consumed; n == 0 means b ended mid-varint and n < 0 means the encoding
// overflows 64 bits (|n| bytes were examined). The hot-path interpreters
// inline unguarded copies of this loop because they only ever see
// recorder-produced streams; this is the safe reference decoder for
// untrusted bytes, and the fuzz targets hold the two in agreement.
func Uvarint(b []byte) (uint64, int) {
	var v uint64
	var shift uint
	for i, c := range b {
		if i == 10 {
			return 0, -(i + 1)
		}
		if c < 0x80 {
			if i == 9 && c > 1 {
				return 0, -(i + 1)
			}
			return v | uint64(c)<<shift, i + 1
		}
		v |= uint64(c&0x7f) << shift
		shift += 7
	}
	return 0, 0
}
