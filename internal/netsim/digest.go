package netsim

// This file implements the determinism-verification layer: a cheap
// word-folding observer that hashes every fabric-level packet event into a
// 64-bit run fingerprint. Two runs of the same scenario with the same seed
// must produce the same digest; any accidental nondeterminism (map
// iteration order in a hot path, an unseeded RNG, wall-clock leakage)
// changes the event stream and therefore the fingerprint. The harness
// surfaces the digest per report so experiments — and CI — can assert
// bit-identical reruns instead of hoping for them.

import "uno/internal/eventq"

// FNV-1a 64-bit parameters, reused as the seed and multiplier of the
// word-at-a-time fold below.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// DigestFold folds a 64-bit word into the running hash with one
// xor-multiply-xorshift round. The fold used to be the canonical FNV-1a
// byte loop; at one fold per word of every fabric event it was the
// hottest single function in the simulator (~10% flat), and the digest
// needs only run-to-run stability and collision resistance, not FNV
// compatibility. The multiplier diffuses each word upward, the shift
// folds the high bits back down so CombineDigests (digest-of-digests)
// keeps mixing; the round is bijective in word for fixed h (xor with a
// constant, odd multiplier, invertible xorshift), so two words can never
// collide within one fold. Changing this function moves every golden
// digest: regenerate the constants in internal/simtest in the same
// commit.
func DigestFold(h, word uint64) uint64 {
	h ^= word
	h *= fnvPrime64
	h ^= h >> 32
	return h
}

// DigestSeed is the FNV-1a offset basis every digest starts from.
const DigestSeed uint64 = fnvOffset64

// CombineDigests folds a sequence of digests into one. The result depends
// on order, so callers must fold in a deterministic order (job order, never
// completion order).
func CombineDigests(digests ...uint64) uint64 {
	h := uint64(DigestSeed)
	for _, d := range digests {
		h = DigestFold(h, d)
	}
	return h
}

// Event kind tags folded into the digest, distinct from any DropReason.
const (
	digestKindSent      = 0x01
	digestKindDelivered = 0x02
	digestKindDropped   = 0x03
)

// DigestObserver implements Observer by hashing every sent, delivered, and
// dropped packet event — (time, kind, flow, seq, type, size, and drop
// reason) — into a single FNV-1a fingerprint. It is allocation-free after
// construction and cheap enough to leave attached in every harness run.
//
// Like the simulation it observes, a DigestObserver is single-goroutine
// state; read Sum only after the run.
type DigestObserver struct {
	Net *Network
	// Next, when non-nil, receives every event after it is folded, so a
	// tracer or counter can be chained behind the digest.
	Next Observer

	// sched caches Net.Sched: fold reads the clock on every event, and the
	// one-hop load keeps the Network struct itself out of the hot path.
	sched *eventq.Scheduler

	h uint64
	n uint64

	// Pad to one whole 64-byte cache line. The sharded engine allocates one
	// observer per shard back to back and every fabric event writes h and
	// n; at 48 B two shards' observers shared a line (DESIGN §3.7).
	_ [16]byte
}

// NewDigestObserver returns a fresh observer bound to net's clock.
func NewDigestObserver(net *Network) *DigestObserver {
	return &DigestObserver{Net: net, sched: net.Sched, h: DigestSeed}
}

// Sum returns the current 64-bit fingerprint (reading mid-run is allowed).
func (d *DigestObserver) Sum() uint64 { return d.h }

// Events returns the number of events folded so far.
func (d *DigestObserver) Events() uint64 { return d.n }

// Reset restarts the fingerprint (between phases of one simulation).
func (d *DigestObserver) Reset() {
	d.h = DigestSeed
	d.n = 0
}

func (d *DigestObserver) fold(kind uint64, p *Packet) {
	// Four words per event: time, flow, and seq need full words; kind
	// (≤ 16 bits, drop reason included), type, and size pack into the
	// fourth without overlap (bits 48+, 40..47, 0..31).
	packed := kind<<48 | uint64(p.Type)<<40 | uint64(uint32(p.Size))
	d.n++
	h := d.h
	h = DigestFold(h, uint64(d.sched.Now()))
	h = DigestFold(h, packed)
	h = DigestFold(h, uint64(p.Flow))
	h = DigestFold(h, uint64(p.Seq))
	d.h = h
}

// PacketSent implements Observer.
func (d *DigestObserver) PacketSent(h *Host, p *Packet) {
	d.fold(digestKindSent, p)
	if d.Next != nil {
		d.Next.PacketSent(h, p)
	}
}

// PacketDelivered implements Observer.
func (d *DigestObserver) PacketDelivered(l *Link, p *Packet) {
	d.fold(digestKindDelivered, p)
	if d.Next != nil {
		d.Next.PacketDelivered(l, p)
	}
}

// PacketDropped implements Observer.
func (d *DigestObserver) PacketDropped(where string, r DropReason, p *Packet) {
	d.fold(digestKindDropped<<8|uint64(r), p)
	if d.Next != nil {
		d.Next.PacketDropped(where, r, p)
	}
}
