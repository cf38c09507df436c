package transport

import (
	"testing"
	"testing/quick"
)

// expand turns a closed-form schedule into the table the schedule tests
// inspect entry by entry.
func expand(s schedule) ([]pktDesc, []blockDesc) {
	descs := make([]pktDesc, s.n)
	for seq := range descs {
		descs[seq] = s.desc(int64(seq))
	}
	var blocks []blockDesc
	for b := int64(0); b < s.nBlocks; b++ {
		blocks = append(blocks, s.block(int32(b)))
	}
	return descs, blocks
}

// testReceiver builds a detached receiver the way Open does.
func testReceiver(ep *Endpoint, flow *Flow, p Params) *Receiver {
	return ep.flows.takeReceiver(ep, flow, &p, p.schedule(flow.Size))
}

// refSchedule is the table builder the closed form replaced, kept as the
// reference the closed form is checked against: it lays the schedule out
// entry by entry, block by block, with no arithmetic shortcuts. data == 0
// means no EC.
func refSchedule(size int64, mtu int, data, parity int32) ([]pktDesc, []blockDesc) {
	if size <= 0 {
		size = 1
	}
	m := int64(mtu)
	nData := (size + m - 1) / m
	lastPayload := int(size - (nData-1)*m)

	if data == 0 {
		descs := make([]pktDesc, nData)
		for i := int64(0); i < nData; i++ {
			payload := mtu
			if i == nData-1 {
				payload = lastPayload
			}
			descs[i] = pktDesc{payload: payload, wire: payload + HeaderSize, block: -1, blockIdx: -1}
		}
		return descs, nil
	}

	x, y := int64(data), int64(parity)
	nBlocks := (nData + x - 1) / x
	descs := make([]pktDesc, 0, nData+nBlocks*y)
	blocks := make([]blockDesc, 0, nBlocks)
	dataLeft := nData
	for b := int64(0); b < nBlocks; b++ {
		d := x
		if dataLeft < d {
			d = dataLeft
		}
		dataLeft -= d
		start := int64(len(descs))
		maxPayload := 0
		for i := int64(0); i < d; i++ {
			payload := mtu
			if b*x+i == nData-1 {
				payload = lastPayload
			}
			if payload > maxPayload {
				maxPayload = payload
			}
			descs = append(descs, pktDesc{
				payload: payload, wire: payload + HeaderSize,
				block: int32(b), blockIdx: int16(i),
			})
		}
		for j := int64(0); j < y; j++ {
			descs = append(descs, pktDesc{
				payload: 0, wire: maxPayload + HeaderSize,
				block: int32(b), blockIdx: int16(d + j), parity: true,
			})
		}
		blocks = append(blocks, blockDesc{start: start, count: int16(d + y), dataCount: int16(d)})
	}
	return descs, blocks
}

// TestScheduleClosedFormMatchesTable: over random sizes, MTUs and block
// shapes — tail blocks of one packet, Parity 0 and sub-MTU flows included —
// every closed-form entry and block summary equals the table's.
func TestScheduleClosedFormMatchesTable(t *testing.T) {
	f := func(sizeRaw uint32, mtuRaw uint16, dRaw, pRaw uint8, useEC bool) bool {
		size := int64(sizeRaw % (1 << 21))
		mtu := int(mtuRaw%8192) + 64
		var data, parity int32
		if useEC {
			data, parity = int32(dRaw%15)+1, int32(pRaw%5)
		}
		want, wantBlocks := refSchedule(size, mtu, data, parity)
		got, gotBlocks := expand(newSchedule(size, mtu, data, parity))
		if len(got) != len(want) || len(gotBlocks) != len(wantBlocks) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		for b := range wantBlocks {
			if gotBlocks[b] != wantBlocks[b] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	// Sizes at every block and packet boundary of the paper's RS(8,2), as
	// a flow's Params lay them out.
	p := Params{MTU: 4096, EC: true}.withDefaults()
	for _, size := range []int64{0, 1, 4095, 4096, 4097, 8 * 4096, 8*4096 + 1, 9 * 4096, 16*4096 - 1, 16 * 4096} {
		want, _ := refSchedule(size, 4096, ecData, ecParity)
		got, _ := expand(p.schedule(size))
		if len(got) != len(want) {
			t.Fatalf("size %d: %d entries, want %d", size, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("size %d seq %d: %+v, want %+v", size, i, got[i], want[i])
			}
		}
	}
}
