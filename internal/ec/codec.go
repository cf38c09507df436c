package ec

import "sync"

// BlockCodec abstracts a systematic erasure code at block granularity so the
// transport can swap the fixed-rate Reed-Solomon scheme for a rateless
// fountain without changing the packet format: every coded packet is a
// (block, symbol id) pair, the first k symbol ids of a block are the source
// packets verbatim (systematic), and ids >= k are repair symbols.
//
// Implementations must be immutable after construction and safe for
// concurrent use; per-block mutable state lives in the BlockDecoder.
type BlockCodec interface {
	// DataShards is the source-symbol count K of a full block. Tail blocks
	// may carry fewer (k <= DataShards); every method taking k accepts any
	// 1 <= k <= DataShards.
	DataShards() int
	// BaseRepair is the number of repair symbols scheduled proactively per
	// block. For RS this is the parity count and also the hard maximum; a
	// rateless codec can mint symbols past it on demand.
	BaseRepair() int
	// Overhead is the fractional proactive redundancy, BaseRepair/DataShards.
	Overhead() float64
	// Rateless reports whether symbol ids beyond k+BaseRepair are valid.
	Rateless() bool
	// MaxSymbols is the largest valid symbol id count for a block of k
	// source symbols (k+BaseRepair for RS, effectively unbounded for a
	// fountain).
	MaxSymbols(k int) int
	// EncodeSymbol writes symbol id of the block (seed, src[:k]) into out.
	// Source symbols (id < k) are copied verbatim; repair symbols are
	// derived from the generator. All src shards and out must share one
	// non-zero length.
	EncodeSymbol(seed uint64, k, id int, src [][]byte, out []byte) error
	// NewDecoder returns a fresh per-block decoder. shardSize == 0 selects
	// rank-only mode: Add ignores payloads and the decoder only tracks
	// decodability — this is what the transport's packet-accounting model
	// uses, and it must agree bit-for-bit with the payload-mode decoder on
	// when a block becomes decodable.
	NewDecoder(seed uint64, k, shardSize int) BlockDecoder
}

// BlockDecoder accumulates received symbols of one block until the source
// data is recoverable.
type BlockDecoder interface {
	// Add records symbol id (with its payload unless the decoder is
	// rank-only). Duplicate ids are ignored. It returns ErrInconsistent
	// when the new symbol contradicts previously added ones (corrupted
	// payload or mismatched seed), and ErrBadSymbol for ids outside the
	// codec's valid range.
	Add(id int, payload []byte) error
	// Decoded reports whether the source block is recoverable.
	Decoded() bool
	// Needed returns a lower bound on additional symbols required.
	Needed() int
	// HasSymbol reports whether symbol id was previously Added.
	HasSymbol(id int) bool
	// Source returns the k recovered source shards. It fails with
	// ErrTooFewShards until Decoded, and is unavailable in rank-only mode.
	Source() ([][]byte, error)
}

// RSBlock adapts the fixed-rate *Codec to the BlockCodec interface. Tail
// blocks with k < Data use a derived (k, Parity) Cauchy codec, cached per k.
type RSBlock struct {
	c *Codec

	mu  sync.Mutex
	sub map[int]*Codec
}

// NewRSBlock wraps an existing codec. The wrapped codec defines the full
// block geometry; sub-codecs for short tail blocks are derived on demand.
func NewRSBlock(c *Codec) *RSBlock {
	return &RSBlock{c: c, sub: make(map[int]*Codec)}
}

func (r *RSBlock) DataShards() int   { return r.c.Data }
func (r *RSBlock) BaseRepair() int   { return r.c.Parity }
func (r *RSBlock) Overhead() float64 { return r.c.Overhead() }
func (r *RSBlock) Rateless() bool    { return false }
func (r *RSBlock) MaxSymbols(k int) int {
	if k > r.c.Data {
		k = r.c.Data
	}
	return k + r.c.Parity
}

// codecFor returns the (k, Parity) codec for a block of k source shards.
func (r *RSBlock) codecFor(k int) (*Codec, error) {
	if k == r.c.Data {
		return r.c, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.sub[k]; ok {
		return c, nil
	}
	c, err := New(k, r.c.Parity)
	if err != nil {
		return nil, err
	}
	r.sub[k] = c
	return c, nil
}

func (r *RSBlock) EncodeSymbol(seed uint64, k, id int, src [][]byte, out []byte) error {
	if k <= 0 || k > r.c.Data || len(src) < k {
		return ErrShardCountArgs
	}
	if id < 0 || id >= r.MaxSymbols(k) {
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
	c, err := r.codecFor(k)
	if err != nil {
		return err
	}
	row := c.encode.row(k + (id - k))
	mulSlice(out, src[0], row[0])
	for d := 1; d < k; d++ {
		mulAddSlice(out, src[d], row[d])
	}
	return nil
}

func (r *RSBlock) NewDecoder(seed uint64, k, shardSize int) BlockDecoder {
	if k > r.c.Data {
		k = r.c.Data
	}
	if k < 1 {
		k = 1
	}
	return &rsDecoder{r: r, k: k, size: shardSize,
		have: make([]bool, k+r.c.Parity)}
}

// rsDecoder counts distinct symbol ids; the MDS property makes any k of the
// k+Parity symbols sufficient, so decodability is a pure counting question —
// exactly the model the transport's receiver has always used.
type rsDecoder struct {
	r      *RSBlock
	k      int
	size   int
	have   []bool
	got    int
	shards [][]byte // lazily sized k+Parity; nil in rank-only mode
}

func (d *rsDecoder) Add(id int, payload []byte) error {
	if id < 0 || id >= len(d.have) {
		return ErrBadSymbol
	}
	if d.have[id] {
		return nil
	}
	if d.size > 0 {
		if len(payload) != d.size {
			return ErrShardSize
		}
		if d.shards == nil {
			d.shards = make([][]byte, len(d.have))
		}
		buf := make([]byte, d.size)
		copy(buf, payload)
		d.shards[id] = buf
	}
	d.have[id] = true
	d.got++
	return nil
}

func (d *rsDecoder) Decoded() bool { return d.got >= d.k }

func (d *rsDecoder) Needed() int {
	if n := d.k - d.got; n > 0 {
		return n
	}
	return 0
}

func (d *rsDecoder) HasSymbol(id int) bool {
	return id >= 0 && id < len(d.have) && d.have[id]
}

func (d *rsDecoder) Source() ([][]byte, error) {
	if d.size == 0 {
		return nil, ErrShardSize
	}
	if !d.Decoded() {
		return nil, ErrTooFewShards
	}
	c, err := d.r.codecFor(d.k)
	if err != nil {
		return nil, err
	}
	shards := make([][]byte, c.Total())
	copy(shards, d.shards)
	if err := c.Reconstruct(shards); err != nil {
		return nil, err
	}
	return shards[:d.k], nil
}
