package index

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"
)

// Posting blocks are the compressed form of one value ID's posting list in
// the inverted index: a sorted strictly-increasing set of dense column IDs,
// encoded as either delta-varints (sparse lists) or a bitmap (dense lists),
// whichever is smaller. Blocks are immutable once built; the hot
// search path iterates them in place (forEachPosting) without materializing
// a decoded slice, and loaders validate untrusted blocks once with
// checkPosting so iteration afterwards never needs to re-verify.
//
// Layout (tag byte first):
//
//	postingDelta:  uvarint n, uvarint first, then n-1 uvarint gaps (gap ≥ 1)
//	postingBitmap: uvarint n, uvarint first, uvarint span, ceil(span/8) bytes
//	               (bit i set ⇔ first+i is in the list; bits 0 and span-1 set)
const (
	postingDelta  = 0x01
	postingBitmap = 0x02
)

// ErrCorruptPosting reports a posting block that fails validation: unknown
// tag, truncated varints, non-increasing IDs, trailing bytes, or a bitmap
// whose population disagrees with its declared count.
var ErrCorruptPosting = errors.New("index: corrupt posting block")

// encodePosting compresses a sorted strictly-increasing ID list, choosing the
// smaller of the two encodings. The empty list encodes (a delta block with
// n=0), though index builds never store one.
func encodePosting(ids []uint32) []byte {
	return appendPosting(make([]byte, 0, postingSize(ids)), ids)
}

// postingSize is the length of ids' block: the smaller of the two encodings.
func postingSize(ids []uint32) int {
	delta, bitmap := postingSizes(ids)
	return min(delta, bitmap)
}

// postingSizes returns the delta and bitmap encodings' lengths for ids.
func postingSizes(ids []uint32) (delta, bitmap int) {
	if len(ids) == 0 {
		return 2, 2
	}
	first, last := ids[0], ids[len(ids)-1]
	span := uint64(last-first) + 1
	delta = 1 + uvarintLen(uint64(len(ids))) + uvarintLen(uint64(first))
	for i := 1; i < len(ids); i++ {
		delta += uvarintLen(uint64(ids[i] - ids[i-1]))
	}
	bitmap = 1 + uvarintLen(uint64(len(ids))) + uvarintLen(uint64(first)) +
		uvarintLen(span) + int((span+7)/8)
	return delta, bitmap
}

// appendPosting appends ids' block to b. With exactly postingSize(ids) bytes
// of spare capacity it writes in place, which is how builds fill one slab.
func appendPosting(b []byte, ids []uint32) []byte {
	if len(ids) == 0 {
		return append(b, postingDelta, 0)
	}
	first := ids[0]
	if delta, bitmap := postingSizes(ids); bitmap < delta {
		span := uint64(ids[len(ids)-1]-first) + 1
		b = append(b, postingBitmap)
		b = binary.AppendUvarint(b, uint64(len(ids)))
		b = binary.AppendUvarint(b, uint64(first))
		b = binary.AppendUvarint(b, span)
		bm, need := len(b), int((span+7)/8)
		b = slices.Grow(b, need)[:bm+need]
		clear(b[bm:])
		for _, id := range ids {
			off := id - first
			b[bm+int(off/8)] |= 1 << (off % 8)
		}
		return b
	}
	b = append(b, postingDelta)
	b = binary.AppendUvarint(b, uint64(len(ids)))
	b = binary.AppendUvarint(b, uint64(first))
	for i := 1; i < len(ids); i++ {
		b = binary.AppendUvarint(b, uint64(ids[i]-ids[i-1]))
	}
	return b
}

// uvarintLen is the encoded size of v.
func uvarintLen(v uint64) int {
	return (bits.Len64(v|1) + 6) / 7
}

// forEachPosting iterates a posting block's IDs in ascending order. It is the
// trusted hot path: blocks built by encodePosting or admitted by checkPosting
// iterate exactly; malformed bytes terminate the walk early but can never
// panic or loop.
func forEachPosting(b []byte, f func(uint32)) {
	if len(b) == 0 {
		return
	}
	switch b[0] {
	case postingDelta:
		p := b[1:]
		n, w := binary.Uvarint(p)
		if w <= 0 {
			return
		}
		p = p[w:]
		var cur uint64
		for i := uint64(0); i < n; i++ {
			v, w := binary.Uvarint(p)
			if w <= 0 {
				return
			}
			p = p[w:]
			cur += v
			f(uint32(cur))
		}
	case postingBitmap:
		p := b[1:]
		_, w := binary.Uvarint(p)
		if w <= 0 {
			return
		}
		p = p[w:]
		first, w := binary.Uvarint(p)
		if w <= 0 {
			return
		}
		p = p[w:]
		span, w := binary.Uvarint(p)
		if w <= 0 {
			return
		}
		p = p[w:]
		if uint64(len(p))*8 < span {
			span = uint64(len(p)) * 8
		}
		for i, byt := range p {
			for byt != 0 {
				bit := bits.TrailingZeros8(byt)
				byt &^= 1 << bit
				off := uint64(i)*8 + uint64(bit)
				if off >= span {
					return
				}
				f(uint32(first + off))
			}
		}
	}
}

// postingLen returns the declared ID count of a block (0 for malformed
// bytes) without walking the list.
func postingLen(b []byte) int {
	if len(b) < 2 || (b[0] != postingDelta && b[0] != postingBitmap) {
		return 0
	}
	n, w := binary.Uvarint(b[1:])
	if w <= 0 {
		return 0
	}
	return int(n)
}

// decodePosting materializes a block's ID list, validating it completely —
// the slow sibling of forEachPosting for the rare paths (WithDelta rewrites,
// verification) that need a slice.
func decodePosting(b []byte) ([]uint32, error) {
	if _, err := checkPosting(b); err != nil {
		return nil, err
	}
	out := make([]uint32, 0, postingLen(b))
	forEachPosting(b, func(id uint32) { out = append(out, id) })
	return out, nil
}

// checkPosting fully validates an untrusted posting block and returns its
// largest ID (0 for an empty list): every load-time path runs it once, so
// the in-place iteration afterwards can trust the bytes. Malformed input
// reports ErrCorruptPosting, never a panic.
func checkPosting(b []byte) (last uint32, err error) {
	if len(b) == 0 {
		return 0, fmt.Errorf("%w: empty block", ErrCorruptPosting)
	}
	switch b[0] {
	case postingDelta:
		p := b[1:]
		n, w := binary.Uvarint(p)
		if w <= 0 {
			return 0, fmt.Errorf("%w: bad count", ErrCorruptPosting)
		}
		p = p[w:]
		var cur uint64
		for i := uint64(0); i < n; i++ {
			v, w := binary.Uvarint(p)
			if w <= 0 {
				return 0, fmt.Errorf("%w: truncated delta list", ErrCorruptPosting)
			}
			if i > 0 && v == 0 {
				return 0, fmt.Errorf("%w: non-increasing delta", ErrCorruptPosting)
			}
			p = p[w:]
			cur += v
			if cur > 1<<32-1 {
				return 0, fmt.Errorf("%w: ID overflow", ErrCorruptPosting)
			}
		}
		if len(p) != 0 {
			return 0, fmt.Errorf("%w: %d trailing bytes", ErrCorruptPosting, len(p))
		}
		return uint32(cur), nil
	case postingBitmap:
		p := b[1:]
		n, w := binary.Uvarint(p)
		if w <= 0 {
			return 0, fmt.Errorf("%w: bad count", ErrCorruptPosting)
		}
		p = p[w:]
		first, w := binary.Uvarint(p)
		if w <= 0 {
			return 0, fmt.Errorf("%w: bad base", ErrCorruptPosting)
		}
		p = p[w:]
		span, w := binary.Uvarint(p)
		if w <= 0 {
			return 0, fmt.Errorf("%w: bad span", ErrCorruptPosting)
		}
		p = p[w:]
		if span == 0 || first > 1<<32-1 || span > 1<<32 || first+span-1 > 1<<32-1 {
			return 0, fmt.Errorf("%w: span out of range", ErrCorruptPosting)
		}
		if uint64(len(p)) != (span+7)/8 {
			return 0, fmt.Errorf("%w: bitmap is %d bytes, span %d needs %d",
				ErrCorruptPosting, len(p), span, (span+7)/8)
		}
		var pop uint64
		for _, byt := range p {
			pop += uint64(bits.OnesCount8(byt))
		}
		if pop != n {
			return 0, fmt.Errorf("%w: bitmap population %d, declared %d", ErrCorruptPosting, pop, n)
		}
		if p[0]&1 == 0 {
			return 0, fmt.Errorf("%w: base bit clear", ErrCorruptPosting)
		}
		lastOff := span - 1
		if p[lastOff/8]&(1<<(lastOff%8)) == 0 {
			return 0, fmt.Errorf("%w: span bit clear", ErrCorruptPosting)
		}
		if tail := uint64(len(p))*8 - span; tail > 0 {
			if p[len(p)-1]>>(8-tail) != 0 {
				return 0, fmt.Errorf("%w: bits set past span", ErrCorruptPosting)
			}
		}
		return uint32(first + span - 1), nil
	}
	return 0, fmt.Errorf("%w: unknown tag 0x%02x", ErrCorruptPosting, b[0])
}
