package netsim

import (
	"math/rand"
	"reflect"
	"testing"

	"uno/internal/eventq"
)

// stuffPacket sets every field of p — exported fields via reflection so new
// fields are covered automatically, unexported ones by hand — to a nonzero
// value derived from rng. Skipping a field here would weaken the full-reset
// guard, so the unexported list is asserted against the struct definition.
func stuffPacket(t *testing.T, p *Packet, rng *rand.Rand) {
	t.Helper()
	v := reflect.ValueOf(p).Elem()
	typ := v.Type()
	unexported := map[string]bool{"hops": true, "pooled": true}
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if !f.CanSet() {
			if !unexported[typ.Field(i).Name] {
				t.Fatalf("unexported Packet field %q not covered by stuffPacket", typ.Field(i).Name)
			}
			continue
		}
		switch f.Kind() {
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			f.SetInt(int64(1 + rng.Intn(1000)))
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			f.SetUint(uint64(1 + rng.Intn(1000)))
		case reflect.Float32, reflect.Float64:
			f.SetFloat(rng.Float64() + 0.5)
		case reflect.Slice:
			s := reflect.MakeSlice(f.Type(), 3, 8)
			for j := 0; j < 3; j++ {
				s.Index(j).SetInt(int64(1 + rng.Intn(100)))
			}
			f.Set(s)
		default:
			t.Fatalf("stuffPacket: unhandled kind %v for Packet.%s — extend the fuzzer", f.Kind(), typ.Field(i).Name)
		}
	}
	p.hops = int32(1 + rng.Intn(10))
}

// checkZeroed fails if any field of p differs from a fresh packet, Missing
// length included (capacity may legitimately be retained).
func checkZeroed(t *testing.T, p *Packet, ctx string) {
	t.Helper()
	v := reflect.ValueOf(p).Elem()
	typ := v.Type()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		name := typ.Field(i).Name
		if name == "pooled" { // true by definition after AllocPacket
			continue
		}
		if f.Kind() == reflect.Slice {
			if f.Len() != 0 {
				t.Fatalf("%s: recycled packet leaks %s of length %d", ctx, name, f.Len())
			}
			continue
		}
		zero := reflect.Zero(f.Type()).Interface()
		got := reflect.NewAt(f.Type(), f.Addr().UnsafePointer()).Elem().Interface()
		if !reflect.DeepEqual(got, zero) {
			t.Fatalf("%s: recycled packet leaks %s = %v", ctx, name, got)
		}
	}
}

// TestPacketRecycleNoStaleFields is the fuzz-style guard from the PR-2 issue:
// whatever state a packet accumulated in flight (Missing, Trimmed, ECNMarked,
// hop counts, ...), a recycled packet must be indistinguishable from a fresh
// one. Because FreePacket resets by whole-struct assignment, the reflection
// sweep exists to catch a future refactor to field-by-field clearing that
// misses something.
func TestPacketRecycleNoStaleFields(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		net := New(uint64(seed))
		live := []*Packet{}
		for op := 0; op < 200; op++ {
			switch {
			case len(live) == 0 || rng.Intn(2) == 0:
				p := net.AllocPacket()
				checkZeroed(t, p, "alloc")
				stuffPacket(t, p, rng)
				live = append(live, p)
			default:
				i := rng.Intn(len(live))
				p := live[i]
				live = append(live[:i], live[i+1:]...)
				net.FreePacket(p)
				if p.pooled {
					t.Fatal("FreePacket left the pooled mark set (double-free guard broken)")
				}
			}
		}
	}
}

// TestPacketPoolReuse: the free list actually reuses objects (same pointer
// back) and the Missing backing array survives the round trip.
func TestPacketPoolReuse(t *testing.T) {
	net := New(1)
	p := net.AllocPacket()
	base := net.PooledPackets() // rest of the slab carved on the miss
	p.Missing = append(p.Missing, 1, 2, 3, 4)
	backing := &p.Missing[0]
	net.FreePacket(p)
	if net.PooledPackets() != base+1 {
		t.Fatalf("PooledPackets = %d, want %d", net.PooledPackets(), base+1)
	}
	q := net.AllocPacket()
	if q != p {
		t.Fatal("pool did not hand back the freed packet")
	}
	if len(q.Missing) != 0 || cap(q.Missing) < 4 {
		t.Fatalf("Missing not truncated-with-capacity: len=%d cap=%d", len(q.Missing), cap(q.Missing))
	}
	q.Missing = q.Missing[:1]
	if &q.Missing[0] != backing {
		t.Fatal("Missing backing array was not reused")
	}
}

// TestFreePacketGuards: nil, literal (unpooled) packets, and double frees are
// all no-ops — struct-literal packets injected by tests must never enter the
// pool.
func TestFreePacketGuards(t *testing.T) {
	net := New(1)
	net.FreePacket(nil)

	lit := &Packet{Type: Ack, Seq: 7}
	net.FreePacket(lit)
	if net.PooledPackets() != 0 {
		t.Fatal("unpooled literal entered the pool")
	}
	if lit.Seq != 7 {
		t.Fatal("FreePacket reset an unpooled packet")
	}

	p := net.AllocPacket()
	net.FreePacket(p)
	n := net.PooledPackets()
	net.FreePacket(p) // double free
	if net.PooledPackets() != n {
		t.Fatalf("double free duplicated the packet in the pool: %d entries, want %d", net.PooledPackets(), n)
	}
}

// TestSteadyStatePacketAllocFree is the netsim half of the allocation budget:
// once pools are warm, pushing a packet through the full fabric path —
// AllocPacket → host send → switch enqueue → serialize → link propagate →
// deliver → FreePacket — allocates nothing per packet.
func TestSteadyStatePacketAllocFree(t *testing.T) {
	const bw = int64(100e9)
	cfg := PortConfig{QueueCap: 1 << 20}
	net := New(1)
	sw := NewSwitch(net, "sw", nil)
	a := NewHost(net, "a", 0)
	b := NewHost(net, "b", 0)
	a.AttachNIC(sw, bw, eventq.Microsecond)
	b.AttachNIC(sw, bw, eventq.Microsecond)
	sw.AddPort(a, bw, eventq.Microsecond, cfg)
	sw.AddPort(b, bw, eventq.Microsecond, cfg)
	sw.SetRouter(routerFunc(func(_ *Switch, p *Packet) int {
		if p.Dst == b.ID() {
			return 1
		}
		return 0
	}))
	b.SetHandler(func(*Packet) {}) // delivery terminal point frees

	send := func() {
		p := net.AllocPacket()
		p.Type = Data
		p.Src = a.ID()
		p.Dst = b.ID()
		p.Size = 1500
		p.ECNCapable = true
		a.Send(p)
		net.Sched.Run()
	}
	// Warm up: event free list, packet pool, queue slices.
	for i := 0; i < 64; i++ {
		send()
	}
	allocs := testing.AllocsPerRun(500, send)
	if allocs != 0 {
		t.Fatalf("steady-state packet path allocates %v objects per packet, want 0", allocs)
	}
	if net.PooledPackets() == 0 {
		t.Fatal("packet pool empty after steady-state traffic")
	}
}
