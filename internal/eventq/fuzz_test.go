package eventq

import (
	"testing"
)

// FuzzSchedulerOps is the fuzzing face of the differential suite: an
// arbitrary byte string is decoded into an operation script — schedules
// into every wheel level (including the overflow heap), same-tick bursts,
// timer rearm/cancel/release-and-rebind, RunUntil — and the script is replayed
// on both the wheel and the reference model. The two fire sequences must be
// identical.
// Where the randomized tests sample the interleaving space, the fuzzer
// searches it for the corner the samples missed.
func FuzzSchedulerOps(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	// One of each opcode with assorted operands.
	f.Add([]byte{0x00, 0x11, 0x22, 0x01, 0x33, 0x44, 0x02, 0x55, 0x03, 0x04, 0x05, 0x06, 0x07, 0x66})
	// Overflow-horizon schedules (delay selector 4) mixed with bursts.
	f.Add([]byte{0x00, 0x04, 0xff, 0x02, 0x04, 0xff, 0x07, 0xff, 0x00, 0x00, 0x00})
	// The aliased opcodes 2 and 5 and the rebind opcode 6 interleaved with
	// arms and noise.
	f.Add([]byte{0x05, 0x01, 0x10, 0x06, 0x00, 0x01, 0x20, 0x05, 0x02, 0x30, 0x06, 0x07, 0x40})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			t.Skip("script longer than the op budget")
		}
		model := runFuzzScript(func() scriptSched { return &refSched{} }, data)
		wheel := runFuzzScript(func() scriptSched { return realSched{New()} }, data)
		if len(model) != len(wheel) {
			t.Fatalf("model fired %d events, wheel %d", len(model), len(wheel))
		}
		for i := range model {
			if model[i] != wheel[i] {
				t.Fatalf("firing %d differs: model (at=%d id=%d) vs wheel (at=%d id=%d)",
					i, model[i].at, model[i].id, wheel[i].at, wheel[i].id)
			}
		}
	})
}

// runFuzzScript interprets data as an op script against a fresh scheduler.
// Every decode decision depends only on the bytes and on state both
// implementations share, so the wheel and the model replay the same script.
func runFuzzScript(mk func() scriptSched, data []byte) []firing {
	s := mk()
	pos := 0
	next := func() byte {
		if pos >= len(data) {
			return 0
		}
		b := data[pos]
		pos++
		return b
	}
	// delay decodes a two-byte magnitude into one of five placement
	// classes: same tick, level-0 ticks, mid levels, upper levels, and
	// past the overflow horizon.
	delay := func() Time {
		sel := next()
		v := Time(next())<<8 | Time(next())
		switch sel % 5 {
		case 0:
			return 0
		case 1:
			return v % 4096
		case 2:
			return (v << 14) | (v % 1024)
		case 3:
			return (v << 28) | (v % 4096)
		default:
			return (1 << 47) + (v << 32) + v
		}
	}

	var fired []firing
	nextID := 0
	schedule := func(at Time) {
		id := nextID
		nextID++
		s.Schedule(at, func() {
			fired = append(fired, firing{s.Now(), id})
		})
	}

	const timerBase = 1 << 30
	timers := make([]scriptTimer, 4)
	for i := range timers {
		i := i
		timers[i] = s.NewTimer(func() {
			fired = append(fired, firing{s.Now(), timerBase + i})
		})
	}

	// Opcode 5 aliases 0 and 2 aliases 4: the operations they once encoded
	// are gone, and keeping eight opcodes lets corpus entries found earlier
	// still decode into scripts of the same length. Opcode 6, once a second
	// Cancel, releases a timer and binds the same Timer value again; the
	// model reads that as a Cancel, so old entries expect the same firings.
	for pos < len(data) {
		switch next() % 8 {
		case 0, 5:
			schedule(s.Now() + delay())
		case 1: // same-tick burst
			at := s.Now() + delay()
			for n := int(next()%3) + 2; n > 0; n-- {
				schedule(at)
			}
		case 3:
			timers[int(next())%len(timers)].ResetAfter(delay())
		case 2, 4:
			timers[int(next())%len(timers)].Cancel()
		case 6:
			timers[int(next())%len(timers)].Rebind()
		default:
			s.RunUntil(s.Now() + delay())
		}
	}
	s.Run()
	return fired
}
