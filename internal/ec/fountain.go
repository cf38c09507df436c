// Rateless LT-style fountain codec.
//
// The transport does not use it (UnoRC is RS(8,2); DESIGN.md §3.9 has the
// negative result). It stays for the benchmark's ec.fountain_* per-layer
// drive.
//
// A fountain block with k source symbols can mint an effectively unbounded
// stream of repair symbols: symbol id < k is the source packet verbatim
// (systematic), and symbol id >= k is the XOR of a pseudo-random subset of
// the sources. The subset ("neighbor set") is derived deterministically from
// (block seed, symbol id) alone, so a sender and a receiver agree on every
// symbol's composition with no control handshake. The receiver finishes a
// block at any K' >= k received symbols whose neighbor sets span GF(2)^k,
// instead of the fixed index set an MDS code prescribes.
//
// Degrees follow the robust-soliton distribution (Luby, FOCS '02). Decoding
// is peeling with full inactivation: symbols are reduced incrementally
// against a GF(2) pivot basis (degree-1 reductions are classic peeling;
// keeping the reduced rows is the inactivation fallback), so decodability is
// exact rank — no peeling-only failure modes. k is capped at 64 so neighbor
// sets are single machine words.
package ec

import (
	"encoding/binary"
	"errors"
	"math"
	"math/bits"

	"uno/internal/rng"
)

// MaxFountainData caps the source symbols per fountain block so a neighbor
// set fits one uint64.
const MaxFountainData = 64

// maxFountainSymbols bounds symbol ids to the int16 BlockIdx header space.
const maxFountainSymbols = 1 << 15

// Robust-soliton shape parameters (conventional choices: delta is the
// decoder's target failure probability for K+O(sqrt(K)ln(K/delta)) symbols,
// c trades spike mass against ripple size).
const (
	solitonC     = 0.1
	solitonDelta = 0.05
)

// Additional errors introduced by the rateless codec.
var (
	ErrBadSymbol    = errors.New("ec: symbol id out of range")
	ErrInconsistent = errors.New("ec: received symbols are inconsistent (corrupt payload or seed mismatch)")
)

// Fountain is an LT-style rateless codec: unlike RS, a block's repair
// symbols have no ceiling below the id space.
//
// A Fountain is immutable after New and safe for concurrent use.
type Fountain struct {
	data int
	// cdf[k-1] is the robust-soliton degree CDF for a block of k sources.
	cdf [][]float64
}

// NewFountain builds a fountain codec with k = data source symbols per full
// block. parity, the repair symbols a sender would schedule per block, only
// has to be non-negative: the codec itself mints any id on demand.
func NewFountain(data, parity int) (*Fountain, error) {
	if data <= 0 || data > MaxFountainData || parity < 0 {
		return nil, ErrInvalidCounts
	}
	f := &Fountain{data: data, cdf: make([][]float64, data)}
	for k := 1; k <= data; k++ {
		f.cdf[k-1] = robustSolitonCDF(k)
	}
	return f, nil
}

// MustNewFountain is NewFountain for statically known-good parameters.
func MustNewFountain(data, parity int) *Fountain {
	f, err := NewFountain(data, parity)
	if err != nil {
		panic(err)
	}
	return f
}

// robustSolitonCDF returns the cumulative robust-soliton distribution over
// degrees 1..k.
func robustSolitonCDF(k int) []float64 {
	p := make([]float64, k)
	if k == 1 {
		p[0] = 1
		return p
	}
	// Ideal soliton rho.
	p[0] = 1 / float64(k)
	for d := 2; d <= k; d++ {
		p[d-1] = 1 / (float64(d) * float64(d-1))
	}
	// Robust correction tau with spike at round(k/S).
	s := solitonC * math.Log(float64(k)/solitonDelta) * math.Sqrt(float64(k))
	if s < 1 {
		s = 1
	}
	if s > float64(k) {
		s = float64(k)
	}
	spike := int(math.Round(float64(k) / s))
	if spike < 1 {
		spike = 1
	}
	if spike > k {
		spike = k
	}
	for d := 1; d < spike; d++ {
		p[d-1] += s / (float64(k) * float64(d))
	}
	if t := s * math.Log(s/solitonDelta) / float64(k); t > 0 {
		p[spike-1] += t
	}
	// Normalize and accumulate.
	sum := 0.0
	for _, v := range p {
		sum += v
	}
	acc := 0.0
	for i, v := range p {
		acc += v / sum
		p[i] = acc
	}
	p[k-1] = 1 // guard against rounding shortfall
	return p
}

// mix64 is a splitmix64-style finalizer used to derive independent symbol
// streams from (seed, id).
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// BlockSeed derives the per-block fountain seed from a flow-level stream
// value and the block number, so two ends that share the stream value agree
// on symbol compositions without a handshake.
func BlockSeed(stream, block uint64) uint64 {
	return mix64(stream + 0x9e3779b97f4a7c15*(block+1))
}

// SymbolMask returns the neighbor set of symbol id for a block of k sources:
// bit i set means source i participates in the XOR. Source symbols (id < k)
// are singletons.
func (f *Fountain) SymbolMask(seed uint64, k, id int) uint64 {
	if k < 1 {
		k = 1
	}
	if k > f.data {
		k = f.data
	}
	if id < k {
		return 1 << uint(id)
	}
	r := rng.New(mix64(seed + 0x9e3779b97f4a7c15*uint64(id+1)))
	cdf := f.cdf[k-1]
	u := r.Float64()
	deg := 1
	for deg < k && u > cdf[deg-1] {
		deg++
	}
	// Partial Fisher-Yates for deg distinct sources.
	var idx [MaxFountainData]uint8
	for i := 0; i < k; i++ {
		idx[i] = uint8(i)
	}
	mask := uint64(0)
	for i := 0; i < deg; i++ {
		j := i + r.Intn(k-i)
		idx[i], idx[j] = idx[j], idx[i]
		mask |= 1 << uint(idx[i])
	}
	return mask
}

// EncodeSymbol writes symbol id of block (seed, src[:k]) into out.
func (f *Fountain) EncodeSymbol(seed uint64, k, id int, src [][]byte, out []byte) error {
	if k <= 0 || k > f.data || len(src) < k {
		return ErrShardCountArgs
	}
	if id < 0 || id >= maxFountainSymbols {
		return ErrBadSymbol
	}
	size := len(out)
	if size == 0 {
		return ErrShardSize
	}
	for _, s := range src[:k] {
		if len(s) != size {
			return ErrShardSize
		}
	}
	if id < k {
		copy(out, src[id])
		return nil
	}
	mask := f.SymbolMask(seed, k, id)
	first := true
	for m := mask; m != 0; m &= m - 1 {
		s := src[bits.TrailingZeros64(m)]
		if first {
			copy(out, s)
			first = false
		} else {
			xorSlice(out, s)
		}
	}
	return nil
}

// Decoder returns a per-block decoder. shardSize == 0 selects rank-only mode
// (no payloads), which tracks decodability bit-identically to payload mode.
func (f *Fountain) Decoder(seed uint64, k, shardSize int) *FountainDecoder {
	if k < 1 {
		k = 1
	}
	if k > f.data {
		k = f.data
	}
	d := &FountainDecoder{f: f, seed: seed, k: k, size: shardSize}
	if shardSize > 0 {
		d.pay = make([][]byte, k)
	}
	return d
}

// FountainDecoder accumulates symbols of one block. It keeps an incremental
// GF(2) basis: pivot[b] is a reduced row whose lowest set bit is b. rank ==
// k means the sources are recoverable.
type FountainDecoder struct {
	f    *Fountain
	seed uint64
	k    int
	size int // shard size; 0 = rank-only

	pivot [MaxFountainData]uint64
	pay   [][]byte // payloads aligned with pivot rows (payload mode only)
	rank  int

	seenLo uint64           // received ids 0..63
	seenHi map[int]struct{} // received ids >= 64
	direct uint64           // source ids (< k) received verbatim

	inconsistent bool
}

func (d *FountainDecoder) seen(id int) bool {
	if id < 64 {
		return d.seenLo&(1<<uint(id)) != 0
	}
	_, ok := d.seenHi[id]
	return ok
}

func (d *FountainDecoder) markSeen(id int) {
	if id < 64 {
		d.seenLo |= 1 << uint(id)
		return
	}
	if d.seenHi == nil {
		d.seenHi = make(map[int]struct{})
	}
	d.seenHi[id] = struct{}{}
}

// Add records one received symbol. Duplicates are ignored; a symbol whose
// payload contradicts previously received ones flags the decoder
// inconsistent and returns ErrInconsistent.
func (d *FountainDecoder) Add(id int, payload []byte) error {
	if id < 0 || id >= maxFountainSymbols {
		return ErrBadSymbol
	}
	if d.seen(id) {
		return nil
	}
	var buf []byte
	if d.size > 0 {
		if len(payload) != d.size {
			return ErrShardSize
		}
		buf = make([]byte, d.size)
		copy(buf, payload)
	}
	d.markSeen(id)
	if id < d.k {
		d.direct |= 1 << uint(id)
	}
	mask := d.f.SymbolMask(d.seed, d.k, id)
	for mask != 0 {
		b := bits.TrailingZeros64(mask)
		if d.pivot[b] == 0 {
			d.pivot[b] = mask
			if d.size > 0 {
				d.pay[b] = buf
			}
			d.rank++
			return nil
		}
		mask ^= d.pivot[b]
		if d.size > 0 {
			xorSlice(buf, d.pay[b])
		}
	}
	// Reduced to the zero vector: linearly redundant. In payload mode the
	// residue must also be zero, or the equations contradict each other.
	if d.size > 0 {
		for _, v := range buf {
			if v != 0 {
				d.inconsistent = true
				return ErrInconsistent
			}
		}
	}
	return nil
}

// Decoded reports whether the received symbols span the source space.
func (d *FountainDecoder) Decoded() bool { return d.rank >= d.k }

// Rank returns the dimension of the received symbol span.
func (d *FountainDecoder) Rank() int { return d.rank }

// Needed returns how many more innovative symbols are required.
func (d *FountainDecoder) Needed() int {
	if n := d.k - d.rank; n > 0 {
		return n
	}
	return 0
}

// HasSymbol reports whether symbol id has been Added.
func (d *FountainDecoder) HasSymbol(id int) bool {
	return id >= 0 && id < maxFountainSymbols && d.seen(id)
}

// DirectData returns the bitmask of source ids received verbatim. Because
// singletons are always independent, k - Rank() never exceeds the number of
// zero bits below k — a NACK can always name enough missing source ids.
func (d *FountainDecoder) DirectData() uint64 { return d.direct }

// Source recovers the k source shards by back-substituting the basis to
// reduced row echelon form. The basis stays valid afterwards (singleton rows
// are a basis too), so late symbols may still be Added for consistency
// checking.
func (d *FountainDecoder) Source() ([][]byte, error) {
	if d.size == 0 {
		return nil, ErrShardSize
	}
	if !d.Decoded() {
		return nil, ErrTooFewShards
	}
	if d.inconsistent {
		return nil, ErrInconsistent
	}
	// pivot[b] has lowest bit b; clear every higher bit top-down so each
	// row used for elimination is already a singleton.
	for b := d.k - 1; b >= 0; b-- {
		for r := 0; r < b; r++ {
			if d.pivot[r]&(1<<uint(b)) != 0 {
				d.pivot[r] ^= d.pivot[b]
				xorSlice(d.pay[r], d.pay[b])
			}
		}
	}
	out := make([][]byte, d.k)
	for i := 0; i < d.k; i++ {
		out[i] = make([]byte, d.size)
		copy(out[i], d.pay[i])
	}
	return out, nil
}

// xorSlice dst ^= src, eight bytes at a time.
func xorSlice(dst, src []byte) {
	n := len(dst)
	if len(src) < n {
		n = len(src)
	}
	i := 0
	for ; i+8 <= n; i += 8 {
		x := binary.LittleEndian.Uint64(dst[i:])
		y := binary.LittleEndian.Uint64(src[i:])
		binary.LittleEndian.PutUint64(dst[i:], x^y)
	}
	for ; i < n; i++ {
		dst[i] ^= src[i]
	}
}
