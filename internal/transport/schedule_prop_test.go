package transport

import (
	"testing"
	"testing/quick"
)

// TestBuildScheduleProperty checks the schedule invariants over random
// flow sizes and EC configurations:
//   - data payloads sum exactly to the flow size,
//   - every wire size covers its payload plus the header,
//   - with EC, blocks are contiguous, labeled consistently, and carry
//     exactly the shape's parity packets each,
//   - without EC, no packet carries block metadata.
func TestBuildScheduleProperty(t *testing.T) {
	f := func(sizeRaw uint32, mtuRaw uint16, dRaw, pRaw uint8, useEC bool) bool {
		size := int64(sizeRaw%(1<<22)) + 1 // 1 B .. 4 MiB
		mtu := int(mtuRaw%8192) + 256
		var data, parity int32
		if useEC {
			data, parity = int32(dRaw%15)+1, int32(pRaw%5)
		}
		descs, blocks := expand(newSchedule(size, mtu, data, parity))

		var payload int64
		for _, d := range descs {
			payload += int64(d.payload)
			if d.wire < d.payload+HeaderSize {
				return false
			}
			if !useEC && (d.block != -1 || d.parity) {
				return false
			}
		}
		if payload != size {
			return false
		}
		if !useEC {
			return blocks == nil
		}

		// Block structure.
		seq := int64(0)
		for b, blk := range blocks {
			if blk.start != seq {
				return false // contiguous layout
			}
			nParity := 0
			for i := int16(0); i < blk.count; i++ {
				d := descs[blk.start+int64(i)]
				if d.block != int32(b) || d.blockIdx != i {
					return false
				}
				if d.parity {
					nParity++
					if d.payload != 0 {
						return false
					}
				}
			}
			if nParity != int(parity) {
				return false
			}
			if int(blk.dataCount)+nParity != int(blk.count) {
				return false
			}
			seq += int64(blk.count)
		}
		return seq == int64(len(descs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
