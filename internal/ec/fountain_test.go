package ec

import (
	"bytes"
	"math/bits"
	"testing"

	"uno/internal/rng"
)

func fountainSources(r *rng.Rand, k, size int) [][]byte {
	src := make([][]byte, k)
	for i := range src {
		src[i] = make([]byte, size)
		for j := range src[i] {
			src[i][j] = byte(r.Uint64())
		}
	}
	return src
}

func TestRobustSolitonCDF(t *testing.T) {
	for k := 1; k <= MaxFountainData; k++ {
		cdf := robustSolitonCDF(k)
		if len(cdf) != k {
			t.Fatalf("k=%d: len(cdf)=%d", k, len(cdf))
		}
		prev := 0.0
		for d, v := range cdf {
			if v < prev {
				t.Fatalf("k=%d: cdf not monotone at degree %d", k, d+1)
			}
			prev = v
		}
		if cdf[k-1] != 1 {
			t.Fatalf("k=%d: cdf ends at %v", k, cdf[k-1])
		}
		if cdf[0] <= 0 {
			t.Fatalf("k=%d: degree-1 mass %v", k, cdf[0])
		}
	}
}

func TestFountainMaskProperties(t *testing.T) {
	f := MustNewFountain(8, 2)
	for k := 1; k <= 8; k++ {
		for id := 0; id < 200; id++ {
			m := f.SymbolMask(1234, k, id)
			if m == 0 {
				t.Fatalf("k=%d id=%d: empty mask", k, id)
			}
			if m>>uint(k) != 0 {
				t.Fatalf("k=%d id=%d: mask %b outside source range", k, id, m)
			}
			if id < k && m != 1<<uint(id) {
				t.Fatalf("k=%d id=%d: systematic mask %b", k, id, m)
			}
			if m2 := f.SymbolMask(1234, k, id); m2 != m {
				t.Fatalf("k=%d id=%d: nondeterministic mask", k, id)
			}
		}
		// A different seed must change at least one repair mask.
		same := true
		for id := k; id < k+32; id++ {
			if f.SymbolMask(1234, k, id) != f.SymbolMask(99, k, id) {
				same = false
				break
			}
		}
		if k > 1 && same {
			t.Fatalf("k=%d: seed does not influence repair masks", k)
		}
	}
}

func TestBlockSeedDistinct(t *testing.T) {
	seen := map[uint64]bool{}
	for flow := uint64(0); flow < 8; flow++ {
		for b := uint64(0); b < 64; b++ {
			s := BlockSeed(flow, b)
			if seen[s] {
				t.Fatalf("collision at flow=%d block=%d", flow, b)
			}
			seen[s] = true
		}
	}
}

// TestFountainRoundTrip drops random subsets of symbols and checks the
// decoder recovers the exact source bytes from any spanning set, for every
// block size k including short tail blocks.
func TestFountainRoundTrip(t *testing.T) {
	f := MustNewFountain(8, 2)
	r := rng.New(7)
	for k := 1; k <= 8; k++ {
		for trial := 0; trial < 50; trial++ {
			seed := r.Uint64()
			src := fountainSources(r, k, 128)
			dec := f.Decoder(seed, k, 128)
			buf := make([]byte, 128)
			// Feed a random stream of symbol ids (with some loss) until
			// decoded.
			id, fed := 0, 0
			for !dec.Decoded() {
				if fed > 10*k+100 {
					t.Fatalf("k=%d trial=%d: not decoded after %d symbols", k, trial, fed)
				}
				drop := r.Float64() < 0.4
				if err := f.EncodeSymbol(seed, k, id, src, buf); err != nil {
					t.Fatalf("encode id=%d: %v", id, err)
				}
				if !drop {
					if err := dec.Add(id, buf); err != nil {
						t.Fatalf("add id=%d: %v", id, err)
					}
					fed++
				}
				id++
			}
			got, err := dec.Source()
			if err != nil {
				t.Fatalf("k=%d trial=%d: Source: %v", k, trial, err)
			}
			for i := range src {
				if !bytes.Equal(got[i], src[i]) {
					t.Fatalf("k=%d trial=%d: source %d differs", k, trial, i)
				}
			}
			// The basis stays usable after Source: a fresh redundant
			// symbol must reduce cleanly.
			if err := f.EncodeSymbol(seed, k, id, src, buf); err != nil {
				t.Fatal(err)
			}
			if err := dec.Add(id, buf); err != nil {
				t.Fatalf("post-Source add: %v", err)
			}
		}
	}
}

// TestFountainRankOnlyAgrees drives a rank-only decoder and a payload
// decoder through an identical symbol stream and checks they agree on
// decodability after every step.
func TestFountainRankOnlyAgrees(t *testing.T) {
	f := MustNewFountain(8, 2)
	r := rng.New(11)
	for trial := 0; trial < 100; trial++ {
		k := 1 + r.Intn(8)
		seed := r.Uint64()
		src := fountainSources(r, k, 64)
		full := f.Decoder(seed, k, 64)
		rank := f.Decoder(seed, k, 0)
		buf := make([]byte, 64)
		for step := 0; step < 4*k+8; step++ {
			id := r.Intn(3 * k) // duplicates and gaps on purpose
			if err := f.EncodeSymbol(seed, k, id, src, buf); err != nil {
				t.Fatal(err)
			}
			if err := full.Add(id, buf); err != nil {
				t.Fatal(err)
			}
			if err := rank.Add(id, nil); err != nil {
				t.Fatal(err)
			}
			if full.Decoded() != rank.Decoded() || full.Rank() != rank.Rank() ||
				full.Needed() != rank.Needed() {
				t.Fatalf("trial=%d step=%d: rank-only diverged (%d vs %d)",
					trial, step, full.Rank(), rank.Rank())
			}
		}
		if !full.Decoded() {
			t.Fatalf("trial=%d: not decoded after saturation", trial)
		}
	}
}

func TestFountainDuplicatesIgnored(t *testing.T) {
	f := MustNewFountain(8, 2)
	dec := f.Decoder(42, 8, 0)
	for i := 0; i < 20; i++ {
		if err := dec.Add(3, nil); err != nil {
			t.Fatal(err)
		}
	}
	if dec.Rank() != 1 {
		t.Fatalf("rank after duplicate adds = %d, want 1", dec.Rank())
	}
	if !dec.HasSymbol(3) || dec.HasSymbol(4) {
		t.Fatal("HasSymbol wrong")
	}
	if dec.DirectData() != 1<<3 {
		t.Fatalf("DirectData = %b", dec.DirectData())
	}
}

func TestFountainBadSymbol(t *testing.T) {
	f := MustNewFountain(8, 2)
	dec := f.Decoder(42, 8, 0)
	if err := dec.Add(-1, nil); err != ErrBadSymbol {
		t.Fatalf("Add(-1) = %v", err)
	}
	if err := dec.Add(maxFountainSymbols, nil); err != ErrBadSymbol {
		t.Fatalf("Add(max) = %v", err)
	}
	var buf [16]byte
	if err := f.EncodeSymbol(99, 8, maxFountainSymbols, nil, buf[:]); err != ErrShardCountArgs {
		t.Fatalf("EncodeSymbol nil src = %v", err)
	}
}

// TestFountainInconsistent corrupts a redundant symbol's payload and checks
// the decoder reports the contradiction instead of silently mis-decoding.
func TestFountainInconsistent(t *testing.T) {
	f := MustNewFountain(8, 2)
	r := rng.New(5)
	k, seed := 8, uint64(77)
	src := fountainSources(r, k, 32)
	dec := f.Decoder(seed, k, 32)
	buf := make([]byte, 32)
	for id := 0; id < k; id++ {
		if err := f.EncodeSymbol(seed, k, id, src, buf); err != nil {
			t.Fatal(err)
		}
		if err := dec.Add(id, buf); err != nil {
			t.Fatal(err)
		}
	}
	// A repair symbol is now redundant; corrupt it.
	if err := f.EncodeSymbol(seed, k, k, src, buf); err != nil {
		t.Fatal(err)
	}
	buf[0] ^= 0xff
	if err := dec.Add(k, buf); err != ErrInconsistent {
		t.Fatalf("corrupted redundant add = %v, want ErrInconsistent", err)
	}
	if _, err := dec.Source(); err != ErrInconsistent {
		t.Fatalf("Source after inconsistency = %v", err)
	}
}

// TestFountainSingletonBound pins DirectData's invariant: k - rank never
// exceeds the number of source ids not received verbatim, so a rank deficit
// can always be named as that many missing source packets.
func TestFountainSingletonBound(t *testing.T) {
	f := MustNewFountain(8, 2)
	r := rng.New(23)
	for trial := 0; trial < 200; trial++ {
		k := 1 + r.Intn(8)
		dec := f.Decoder(r.Uint64(), k, 0)
		for step := 0; step < r.Intn(3*k+1); step++ {
			if err := dec.Add(r.Intn(4*k), nil); err != nil {
				t.Fatal(err)
			}
		}
		missingDirect := k - bits.OnesCount64(dec.DirectData())
		if dec.Needed() > missingDirect {
			t.Fatalf("trial=%d: needed %d > missing direct %d", trial, dec.Needed(), missingDirect)
		}
	}
}

func BenchmarkFountainEncode(b *testing.B) {
	f := MustNewFountain(8, 2)
	r := rng.New(1)
	src := fountainSources(r, 8, 4096)
	out := make([]byte, 4096)
	b.SetBytes(8 * 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// One block's worth of repair symbols, like Encode82's 2 parity.
		base := 8 + (i % 1024) // vary the id so mask sampling is measured
		if err := f.EncodeSymbol(42, 8, base, src, out); err != nil {
			b.Fatal(err)
		}
		if err := f.EncodeSymbol(42, 8, base+1, src, out); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFountainDecode(b *testing.B) {
	f := MustNewFountain(8, 2)
	r := rng.New(2)
	src := fountainSources(r, 8, 4096)
	// Pre-encode a pool of symbols; decode dropping two sources.
	pool := make([][]byte, 20)
	for id := range pool {
		pool[id] = make([]byte, 4096)
		if err := f.EncodeSymbol(42, 8, id, src, pool[id]); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(8 * 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec := f.Decoder(42, 8, 4096)
		for id := 2; id < 20 && !dec.Decoded(); id++ {
			if err := dec.Add(id, pool[id]); err != nil {
				b.Fatal(err)
			}
		}
		if !dec.Decoded() {
			b.Fatal("not decoded")
		}
		if _, err := dec.Source(); err != nil {
			b.Fatal(err)
		}
	}
}
