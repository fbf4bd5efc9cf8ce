package matrix

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"gent/internal/table"
)

// randCodes yields a random Equation 4 code vector and its α−δ under shape.
func randCodes(rng *rand.Rand, s *Shape) tuple {
	code := make([]int8, len(s.Src.Cols))
	ad := 0
	for i := range code {
		code[i] = int8(rng.Intn(3) - 1)
		if !s.isKey[i] {
			ad += int(code[i])
		}
	}
	return tuple{code: code, ad: ad}
}

// unpack reverses packCodes for comparison against the unpacked kernel.
func unpack(words []uint64, cols int) []int8 {
	code := make([]int8, cols)
	for c := range code {
		code[c] = int8(uint8(words[c>>3] >> ((c & 7) * 8)))
	}
	return code
}

// packShape builds a shape with the given column count, key on column 0.
func packShape(t *testing.T, cols int) *Shape {
	t.Helper()
	names := make([]string, cols)
	for i := range names {
		names[i] = fmt.Sprintf("c%d", i)
	}
	src := table.New("S", names...)
	src.Key = []int{0}
	row := make([]table.Value, cols)
	for i := range row {
		row[i] = table.S(fmt.Sprintf("v%d", i))
	}
	src.AddRow(row...)
	return NewShape(src)
}

// TestPackedByteClassifiers pins the SWAR byte classifiers on every possible
// byte value in every lane, including lanes adjacent to interesting
// neighbors — the carry-free claims in packed.go, checked exhaustively.
func TestPackedByteClassifiers(t *testing.T) {
	for lane := 0; lane < 8; lane++ {
		for v := 0; v < 256; v++ {
			// Surround the lane under test with the noisiest neighbors for
			// carry detection: 0xFF on both sides.
			var w uint64 = 0xffffffffffffffff
			w &^= uint64(0xff) << (lane * 8)
			w |= uint64(v) << (lane * 8)
			laneFlag := uint64(0x80) << (lane * 8)

			if got, want := nonzero80(w)&laneFlag != 0, v != 0; got != want {
				t.Fatalf("nonzero80 lane %d value %#02x: got %v want %v", lane, v, got, want)
			}
			if got, want := one80(w)&laneFlag != 0, v == 0x01; got != want {
				t.Fatalf("one80 lane %d value %#02x: got %v want %v", lane, v, got, want)
			}
		}
	}
	// fullBytes expands arbitrary flag subsets without cross-byte bleed.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 1000; trial++ {
		m := rng.Uint64() & packedHi
		got := fullBytes(m)
		for lane := 0; lane < 8; lane++ {
			b := uint8(got >> (lane * 8))
			flagged := m&(uint64(0x80)<<(lane*8)) != 0
			if flagged && b != 0xff || !flagged && b != 0 {
				t.Fatalf("fullBytes(%#016x) lane %d = %#02x", m, lane, b)
			}
		}
	}
}

// TestPackRoundTrip: packCodes followed by unpack is the identity, padding
// bytes stay zero, and packTuple preserves the cached α−δ.
func TestPackRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, cols := range []int{1, 3, 7, 8, 9, 16, 21} {
		s := packShape(t, cols)
		for trial := 0; trial < 50; trial++ {
			tp := randCodes(rng, s)
			p := s.packTuple(tp)
			if len(p.words) != s.pwords {
				t.Fatalf("cols %d: %d words, want %d", cols, len(p.words), s.pwords)
			}
			got := unpack(p.words, cols)
			for c := range tp.code {
				if got[c] != tp.code[c] {
					t.Fatalf("cols %d col %d: %d != %d", cols, c, got[c], tp.code[c])
				}
			}
			for c := cols; c < s.pwords*8; c++ {
				if b := uint8(p.words[c>>3] >> ((c & 7) * 8)); b != 0 {
					t.Fatalf("cols %d: padding byte %d = %#02x", cols, c, b)
				}
			}
			if p.ad != tp.ad {
				t.Fatalf("cols %d: packed ad %d != %d", cols, p.ad, tp.ad)
			}
		}
	}
}

// TestPackedKernelMatchesUnpacked: conflict detection, the OR merge, the
// whole per-key combine, and the contribution formula agree with the unpacked
// int8 kernel on random tuples — codes, cached α−δ, list order, everything.
func TestPackedKernelMatchesUnpacked(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, cols := range []int{2, 5, 8, 13, 24} {
		s := packShape(t, cols)
		for trial := 0; trial < 200; trial++ {
			a, b := randCodes(rng, s), randCodes(rng, s)
			pa, pb := s.packTuple(a), s.packTuple(b)

			if got, want := packedConflicts(pa.words, pb.words), conflicts(a.code, b.code); got != want {
				t.Fatalf("cols %d: packedConflicts %v, conflicts %v (a=%v b=%v)", cols, got, want, a.code, b.code)
			}

			om := or(a, b, s.isKey)
			pm := s.packedOr(nil, pa, pb)
			if gotCode := unpack(pm.words, cols); !equalCodes(gotCode, om.code) {
				t.Fatalf("cols %d: packedOr codes %v != or codes %v", cols, gotCode, om.code)
			}
			if pm.ad != om.ad {
				t.Fatalf("cols %d: packedOr ad %d != or ad %d", cols, pm.ad, om.ad)
			}
		}

		// Whole-list combine, with and without an arena, against combineKey.
		arena := new(kernelArena)
		for trial := 0; trial < 100; trial++ {
			alist := make([]tuple, rng.Intn(4))
			blist := make([]tuple, 1+rng.Intn(4))
			for i := range alist {
				alist[i] = randCodes(rng, s)
			}
			for i := range blist {
				blist[i] = randCodes(rng, s)
			}
			pack := func(list []tuple) []ptuple {
				p := make([]ptuple, len(list))
				for i := range list {
					p[i] = s.packTuple(list[i])
				}
				return p
			}
			want := combineKey(alist, blist, s.isKey)
			check := func(mode string, got []ptuple) {
				t.Helper()
				if len(got) != len(want) {
					t.Fatalf("cols %d %s: %d tuples, want %d", cols, mode, len(got), len(want))
				}
				for i := range got {
					if !equalCodes(unpack(got[i].words, cols), want[i].code) || got[i].ad != want[i].ad {
						t.Fatalf("cols %d %s tuple %d: (%v, ad %d) != (%v, ad %d)", cols, mode,
							i, unpack(got[i].words, cols), got[i].ad, want[i].code, want[i].ad)
					}
				}
				if gc, wc := s.contributionPacked(got), s.contribution(want); gc != wc {
					t.Fatalf("cols %d %s: contribution %v != %v", cols, mode, gc, wc)
				}
			}
			check("heap", s.combinePacked(nil, pack(alist), pack(blist)))
			arena.reset()
			check("arena", s.combinePacked(arena, pack(alist), pack(blist)))
		}
	}
}

// TestKernelArenaSlicesSurviveGrowth: slices handed out before an arena
// buffer overflow must stay valid (the buffer is replaced, not grown in
// place) for the remainder of the scoring step.
func TestKernelArenaSlicesSurviveGrowth(t *testing.T) {
	ar := new(kernelArena)
	var handed [][]uint64
	for i := 0; i < 500; i++ {
		w := ar.allocWords(7)
		for j := range w {
			w[j] = uint64(i)<<8 | uint64(j)
		}
		handed = append(handed, w)
	}
	for i, w := range handed {
		if len(w) != 7 {
			t.Fatalf("slice %d: len %d", i, len(w))
		}
		for j := range w {
			if w[j] != uint64(i)<<8|uint64(j) {
				t.Fatalf("slice %d word %d clobbered: %#x", i, j, w[j])
			}
		}
	}
}

// packCodes packs Equation 4 int8 codes into words uint64 words.
func packCodes(code []int8, words int) []uint64 {
	w := make([]uint64, words)
	for c, v := range code {
		w[c>>3] |= uint64(uint8(v)) << ((c & 7) * 8)
	}
	return w
}

// packTuple converts an unpacked aligned tuple, keeping its cached α−δ.
func (s *Shape) packTuple(t tuple) ptuple {
	return ptuple{words: packCodes(t.code, s.pwords), ad: t.ad}
}

// TestPackCandidateMatchesFromTable holds the compact packed candidate to
// FromTable on the seeded corpora: the same keys, ascending, and per key the
// same tuples in the same order with the same α−δ and 1-code mask.
func TestPackCandidateMatchesFromTable(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 40; trial++ {
		src, cands := randomCorpus(rng)
		for _, enc := range []Encoding{ThreeValued, TwoValued} {
			shape := NewShape(src)
			e := newEngine(context.Background(), shape, cands, enc, 2)
			for ci, cand := range cands {
				m, c := FromTable(shape, cand, enc), &e.cands[ci]
				if len(c.touched) != len(m.rows) {
					t.Fatalf("trial %d cand %d: %d keys touched, FromTable has %d", trial, ci, len(c.touched), len(m.rows))
				}
				for k, id := range c.touched {
					if k > 0 && id <= c.touched[k-1] {
						t.Fatalf("trial %d cand %d: touched ids %v not ascending", trial, ci, c.touched)
					}
					want, got := m.rows[int(id)], c.list(k)
					if len(got) != len(want) {
						t.Fatalf("trial %d cand %d key %d: %d tuples, FromTable has %d", trial, ci, id, len(got), len(want))
					}
					mask := make([]uint64, shape.pwords)
					for i, tp := range got {
						if !equalCodes(unpack(tp.words, len(src.Cols)), want[i].code) || tp.ad != want[i].ad {
							t.Fatalf("trial %d cand %d key %d tuple %d differs from FromTable", trial, ci, id, i)
						}
						for w, v := range tp.words {
							mask[w] |= one80(v)
						}
					}
					if !slices.Equal(c.onesOf(k, shape.pwords), mask) {
						t.Fatalf("trial %d cand %d key %d: 1-code mask differs", trial, ci, id)
					}
				}
			}
		}
	}
}

// TestPackCandidateSizedByAlignedRows packs one candidate of 10 aligned rows
// against a 20-key and a 20 000-key Source: what packing allocates follows
// the rows that align, not the Source's key count.
func TestPackCandidateSizedByAlignedRows(t *testing.T) {
	source := func(keys int) *table.Table {
		src := table.New("S", "id", "a", "b")
		src.Key = []int{0}
		for i := 0; i < keys; i++ {
			src.AddRow(table.S(fmt.Sprintf("k%d", i)), table.S(fmt.Sprintf("a%d", i)), table.Null)
		}
		return src
	}
	cand := table.New("C", "b", "id", "a")
	for i := 0; i < 10; i++ {
		cand.AddRow(table.S("b"), table.S(fmt.Sprintf("k%d", 2*i)), table.S(fmt.Sprintf("a%d", 2*i)))
	}
	cand.AddRow(table.S("b"), table.S("not a key"), table.S("a"))
	allocated := func(keys int) uint64 {
		e := newEngine(context.Background(), NewShape(source(keys)), nil, ThreeValued, 1)
		sc := new(packScratch)
		if c := e.packCandidate(cand, ThreeValued, sc); len(c.touched) != 10 || len(c.tuples) != 10 {
			t.Fatalf("%d keys: packed %d keys and %d tuples, want 10 and 10", keys, len(c.touched), len(c.tuples))
		}
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 100; i++ {
			e.packCandidate(cand, ThreeValued, sc)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	small, big := allocated(20), allocated(20000)
	if big >= 2*small {
		t.Errorf("packing 10 aligned rows allocated %d B against 20 000 keys, %d B against 20: want under 2×", big, small)
	}
}
