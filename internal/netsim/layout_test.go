package netsim

import (
	"testing"
	"unsafe"
)

// TestPacketHotFieldsFirstCacheLine pins the Packet layout rule: every field
// a forwarding hop reads — countHop's hop counter, the fat-tree router's
// ECMP inputs, Port.Enqueue's admission and marking fields, and the digest
// fold's words — lies in the first 64 bytes, so a hop touches one cache
// line of the header. Moving one of them past it (the hop counter used to
// sit at offset 152) fails here.
func TestPacketHotFieldsFirstCacheLine(t *testing.T) {
	var p Packet
	for _, f := range []struct {
		name string
		off  uintptr
		size uintptr
	}{
		{"hops", unsafe.Offsetof(p.hops), unsafe.Sizeof(p.hops)},
		{"Type", unsafe.Offsetof(p.Type), unsafe.Sizeof(p.Type)},
		{"Flow", unsafe.Offsetof(p.Flow), unsafe.Sizeof(p.Flow)},
		{"Src", unsafe.Offsetof(p.Src), unsafe.Sizeof(p.Src)},
		{"Dst", unsafe.Offsetof(p.Dst), unsafe.Sizeof(p.Dst)},
		{"Size", unsafe.Offsetof(p.Size), unsafe.Sizeof(p.Size)},
		{"Entropy", unsafe.Offsetof(p.Entropy), unsafe.Sizeof(p.Entropy)},
		{"ECNCapable", unsafe.Offsetof(p.ECNCapable), unsafe.Sizeof(p.ECNCapable)},
		{"ECNMarked", unsafe.Offsetof(p.ECNMarked), unsafe.Sizeof(p.ECNMarked)},
		{"Trimmed", unsafe.Offsetof(p.Trimmed), unsafe.Sizeof(p.Trimmed)},
		{"Seq", unsafe.Offsetof(p.Seq), unsafe.Sizeof(p.Seq)},
	} {
		if end := f.off + f.size; end > 64 {
			t.Errorf("Packet.%s spans bytes %d..%d, past the first cache line", f.name, f.off, end)
		}
	}
}
