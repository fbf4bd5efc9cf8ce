package index

import (
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func roundTripPosting(t *testing.T, ids []uint32) {
	t.Helper()
	b := encodePosting(ids)
	if _, err := checkPosting(b); err != nil {
		t.Fatalf("checkPosting(%v): %v", ids, err)
	}
	got, err := decodePosting(b)
	if err != nil {
		t.Fatalf("decodePosting(%v): %v", ids, err)
	}
	if len(ids) == 0 {
		if len(got) != 0 {
			t.Fatalf("empty round trip: got %v", got)
		}
		return
	}
	if !reflect.DeepEqual(got, ids) {
		t.Fatalf("round trip: got %v, want %v", got, ids)
	}
	if n := postingLen(b); n != len(ids) {
		t.Fatalf("postingLen = %d, want %d", n, len(ids))
	}
	var walked []uint32
	forEachPosting(b, func(id uint32) { walked = append(walked, id) })
	if !reflect.DeepEqual(walked, ids) {
		t.Fatalf("forEachPosting walked %v, want %v", walked, ids)
	}
}

func TestPostingRoundTrip(t *testing.T) {
	cases := [][]uint32{
		{},
		{0},
		{7},
		{0, 1, 2, 3, 4, 5, 6, 7},               // dense: bitmap wins
		{1, 1000000, 4000000000},               // sparse: delta wins
		{4294967295},                           // max uint32
		{0, 4294967295},                        // full span
		{5, 6, 8, 9, 11, 200, 201, 202, 65000}, // mixed
	}
	for _, ids := range cases {
		roundTripPosting(t, ids)
	}
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := r.Intn(300)
		var span uint32 = 1 << uint(2+r.Intn(20))
		if uint32(n) > span {
			n = int(span)
		}
		seen := make(map[uint32]bool, n)
		for len(seen) < n {
			seen[r.Uint32()%span] = true
		}
		ids := make([]uint32, 0, n)
		for id := range seen {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		roundTripPosting(t, ids)
	}
}

func TestPostingPicksSmallerEncoding(t *testing.T) {
	dense := make([]uint32, 1000)
	for i := range dense {
		dense[i] = uint32(i)
	}
	if b := encodePosting(dense); b[0] != postingBitmap {
		t.Errorf("dense run encoded as 0x%02x, want bitmap", b[0])
	}
	sparse := []uint32{1, 1 << 10, 1 << 20, 1 << 30}
	if b := encodePosting(sparse); b[0] != postingDelta {
		t.Errorf("sparse list encoded as 0x%02x, want delta", b[0])
	}
}

func TestPostingCorruption(t *testing.T) {
	valid := encodePosting([]uint32{3, 9, 40, 41, 42})
	bad := [][]byte{
		nil,
		{},
		{0x7f, 1, 2},                             // unknown tag
		valid[:1],                                // count missing
		valid[:len(valid)-1],                     // truncated list
		append(append([]byte{}, valid...), 0x01), // trailing byte
	}
	// Non-increasing delta: n=2, first=5, gap=0.
	bad = append(bad, []byte{postingDelta, 2, 5, 0})
	// Bitmap population disagreeing with declared count: n=3 but 2 bits set.
	bad = append(bad, []byte{postingBitmap, 3, 0, 8, 0b00000101})
	// Bitmap with base bit clear.
	bad = append(bad, []byte{postingBitmap, 2, 0, 8, 0b00000110})
	// Bitmap with bits set past the span.
	bad = append(bad, []byte{postingBitmap, 3, 0, 3, 0b00001101})
	for i, b := range bad {
		if _, err := checkPosting(b); !errors.Is(err, ErrCorruptPosting) {
			t.Errorf("case %d (% x): checkPosting = %v, want ErrCorruptPosting", i, b, err)
		}
		if _, err := decodePosting(b); !errors.Is(err, ErrCorruptPosting) {
			t.Errorf("case %d: decodePosting error = %v, want ErrCorruptPosting", i, err)
		}
		// The trusted iterator must degrade silently, never panic.
		forEachPosting(b, func(uint32) {})
	}
}

// FuzzPostingCodec pins the codec's two contracts: arbitrary bytes are either
// cleanly rejected or decode to a strictly-increasing list that re-encodes
// canonically, and every valid ID set round-trips bit for bit.
func FuzzPostingCodec(f *testing.F) {
	f.Add([]byte{postingDelta, 3, 1, 1, 1})
	f.Add([]byte{postingBitmap, 2, 0, 8, 0b10000001})
	f.Add(encodePosting([]uint32{0, 5, 6, 7, 1 << 20}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Arbitrary bytes: never panic; on acceptance, the decoded list must
		// be valid input to the encoder and survive a second round trip.
		if _, err := checkPosting(data); err == nil {
			ids, err := decodePosting(data)
			if err != nil {
				t.Fatalf("checkPosting accepted what decodePosting rejects: %v", err)
			}
			for i := 1; i < len(ids); i++ {
				if ids[i] <= ids[i-1] {
					t.Fatalf("accepted block decodes non-increasing: %v", ids)
				}
			}
			again, err := decodePosting(encodePosting(ids))
			if err != nil {
				t.Fatalf("re-encode failed validation: %v", err)
			}
			if len(ids) > 0 && !reflect.DeepEqual(again, ids) {
				t.Fatalf("re-encode round trip: got %v, want %v", again, ids)
			}
		} else {
			forEachPosting(data, func(uint32) {}) // must not panic
		}

		// Data-derived ID set: encode/decode must round-trip exactly.
		seen := make(map[uint32]bool)
		for i := 0; i+4 <= len(data) && len(seen) < 256; i += 4 {
			id := uint32(data[i]) | uint32(data[i+1])<<8 | uint32(data[i+2])<<16 | uint32(data[i+3])<<24
			seen[id] = true
		}
		ids := make([]uint32, 0, len(seen))
		for id := range seen {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		got, err := decodePosting(encodePosting(ids))
		if err != nil {
			t.Fatalf("round trip of %d ids: %v", len(ids), err)
		}
		if len(ids) > 0 && !reflect.DeepEqual(got, ids) {
			t.Fatalf("round trip: got %v, want %v", got, ids)
		}
	})
}
