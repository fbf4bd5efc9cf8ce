package table

import (
	"encoding/binary"
	"hash"
	"hash/crc32"
)

// The flat file layouts — the lake catalog and the index directory's
// inverted file — share one vocabulary: little-endian fixed
// integers, uvarint counts and lengths, a str as a uvarint length and the
// bytes, and a CRC-32C trailer over every byte before it. This file holds the
// pieces they share: the trailer, the str and dictionary-entry encoders, and
// the one bounded decoder every loader reads through.

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// NewCRC returns a CRC-32C hash, for a loader that checksums a file while
// reading it.
func NewCRC() hash.Hash32 { return crc32.New(castagnoli) }

// AppendCRC appends the CRC-32C of b, the trailer every flat file ends with.
func AppendCRC(b []byte) []byte {
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, castagnoli))
}

// CheckCRC splits a flat file into its body and reports whether the 4-byte
// trailer is the body's CRC-32C. A file shorter than the trailer fails.
func CheckCRC(data []byte) (body []byte, ok bool) {
	if len(data) < 4 {
		return nil, false
	}
	body = data[:len(data)-4]
	return body, binary.LittleEndian.Uint32(data[len(body):]) == crc32.Checksum(body, castagnoli)
}

// AppendStr appends s as a str: its uvarint length and its bytes.
func AppendStr(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendDictEntries appends a dictionary snapshot: the uvarint count, then
// each entry as its Kind byte and payload — a str, the canonical bits as a
// uint64 LE, or a varint label. FlatReader.DictEntries reads it back.
func AppendDictEntries(b []byte, entries []DictEntry) []byte {
	b = binary.AppendUvarint(b, uint64(len(entries)))
	for _, e := range entries {
		b = append(b, byte(e.Kind))
		switch e.Kind {
		case KindString:
			b = AppendStr(b, e.Str)
		case KindNumber:
			b = binary.LittleEndian.AppendUint64(b, e.Bits)
		default:
			b = binary.AppendVarint(b, e.Label)
		}
	}
	return b
}

// FlatReader decodes a flat layout from a string or a byte slice; what it
// hands back are slices of that buffer, so a loader decoding from one string
// gets substrings and one decoding from bytes gets subslices, without
// copying. A read past the end or a malformed field marks the reader bad and
// yields zero values from then on, so callers check Bad once per record
// rather than after every field.
type FlatReader[S string | []byte] struct {
	buf S
	off int
	bad bool
}

// NewFlatReader reads buf from offset off.
func NewFlatReader[S string | []byte](buf S, off int) *FlatReader[S] {
	return &FlatReader[S]{buf: buf, off: off, bad: off < 0 || off > len(buf)}
}

// Bad reports whether a read failed.
func (d *FlatReader[S]) Bad() bool { return d.bad }

// Fail marks the reader bad, for a field that decoded but cannot be valid.
func (d *FlatReader[S]) Fail() { d.bad = true }

// Offset is the position of the next read.
func (d *FlatReader[S]) Offset() int { return d.off }

// Done reports whether every read succeeded and consumed the whole buffer.
func (d *FlatReader[S]) Done() bool { return !d.bad && d.off == len(d.buf) }

// Take reads the next n bytes.
func (d *FlatReader[S]) Take(n int) S {
	if d.bad || n < 0 || n > len(d.buf)-d.off {
		d.bad = true
		var zero S
		return zero
	}
	s := d.buf[d.off : d.off+n]
	d.off += n
	return s
}

// U8 reads one byte.
func (d *FlatReader[S]) U8() byte {
	if d.bad || d.off >= len(d.buf) {
		d.bad = true
		return 0
	}
	c := d.buf[d.off]
	d.off++
	return c
}

// U32 reads a uint32 LE.
func (d *FlatReader[S]) U32() uint32 {
	s := d.Take(4)
	if d.bad {
		return 0
	}
	return uint32(s[0]) | uint32(s[1])<<8 | uint32(s[2])<<16 | uint32(s[3])<<24
}

// U64 reads a uint64 LE.
func (d *FlatReader[S]) U64() uint64 {
	lo := uint64(d.U32())
	return lo | uint64(d.U32())<<32
}

// Uvarint reads a uvarint, failing on one that overflows 64 bits.
func (d *FlatReader[S]) Uvarint() uint64 {
	var x uint64
	for shift := uint(0); shift < 64; shift += 7 {
		c := d.U8()
		if c < 0x80 {
			if shift == 63 && c > 1 {
				d.bad = true
				return 0
			}
			return x | uint64(c)<<shift
		}
		x |= uint64(c&0x7f) << shift
	}
	d.bad = true
	return 0
}

// Varint reads a zig-zag varint.
func (d *FlatReader[S]) Varint() int64 {
	ux := d.Uvarint()
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x
}

// Int reads a uvarint that must fit a non-negative int32.
func (d *FlatReader[S]) Int() int {
	v := d.Uvarint()
	if v > 1<<31-1 {
		d.bad = true
		return 0
	}
	return int(v)
}

// Count reads the number of items that follow, each at least size bytes
// long, and fails unless that many fit in the bytes left — so a forged count
// never sizes an allocation beyond the file.
func (d *FlatReader[S]) Count(size int) int {
	n := d.Uvarint()
	if d.bad || n > uint64(len(d.buf)-d.off)/uint64(size) {
		d.bad = true
		return 0
	}
	return int(n)
}

// Str reads a str.
func (d *FlatReader[S]) Str() S {
	return d.Take(d.Count(1))
}

// DictEntries reads a dictionary snapshot AppendDictEntries wrote. It checks
// the layout only; NewDictFromSnapshot judges the entries.
func (d *FlatReader[S]) DictEntries() []DictEntry {
	entries := make([]DictEntry, d.Count(1))
	for i := range entries {
		switch k := Kind(d.U8()); k {
		case KindString:
			entries[i] = DictEntry{Kind: k, Str: string(d.Str())}
		case KindNumber:
			entries[i] = DictEntry{Kind: k, Bits: d.U64()}
		case KindLabel:
			entries[i] = DictEntry{Kind: k, Label: d.Varint()}
		default:
			d.bad = true
		}
		if d.bad {
			return nil
		}
	}
	return entries
}
