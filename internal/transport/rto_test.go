package transport

import (
	"math"
	"testing"

	"uno/internal/eventq"
)

// Regression tests for the sender's rto clamp-and-backoff arithmetic. The
// pre-fix code doubled the estimate up to 16 times before comparing
// against the ceiling, so a large srtt+4*rttvar estimate could wrap int64
// picoseconds negative before the guard ever tripped. rto() only reads
// params and the RTT estimator fields, so a bare sender is enough. Its
// bounds derive from BaseRTT: floor 4 ×, ceiling 32 ×.

// rtoConn builds a sender with just the fields rto() consumes. It has an
// RTT sample (a zero one leaves the floor as the base): the clamp and the
// back-off only apply once it does.
func rtoConn(baseRTT, srtt, rttvar eventq.Time, backoff uint8) *sender {
	c := &sender{params: Params{BaseRTT: baseRTT}}
	c.hasRTT = true
	c.srtt, c.rttvar = srtt, rttvar
	c.rtoBackoff = backoff
	return c
}

// noSample takes c's RTT sample away.
func noSample(c *sender) *sender {
	c.hasRTT = false
	return c
}

func TestRTOSaturatedBackoffNoOverflow(t *testing.T) {
	huge := eventq.Time(math.MaxInt64)
	// limit is the largest BaseRTT validate accepts; its ceiling is within
	// 32 ps of MaxInt64.
	limit := huge / (minRTOFactor * maxRTOFactor)
	const base = 250 * eventq.Microsecond // floor 1 ms, ceiling 8 ms
	cases := []struct {
		name string
		c    *sender
		want eventq.Time
	}{
		{
			// Pre-fix failure: est ≈ 3/4·MaxInt64 wraps negative on the
			// first doubling and the 16 rounds return garbage.
			name: "huge estimate, ceiling at the int64 limit, saturated backoff",
			c:    rtoConn(limit, huge/4, huge/8, 16),
			want: 32 * limit,
		},
		{
			// Estimate already past the cap must clamp before any backoff.
			name: "estimate above cap",
			c:    rtoConn(base, eventq.Second, eventq.Second, 0),
			want: 8 * eventq.Millisecond,
		},
		{
			// Backoff walks up to the cap and sticks there.
			name: "backoff saturates at cap",
			c:    rtoConn(base, 1500*eventq.Microsecond, 0, 16),
			want: 8 * eventq.Millisecond,
		},
		{
			// A 1 ps BaseRTT doubles its 4 ps floor exactly, under the
			// 32 ps cap: backoff must not over-clamp.
			name: "tiny BaseRTT, exact doubling",
			c:    rtoConn(eventq.Picosecond, 0, 0, 2),
			want: 16 * eventq.Picosecond,
		},
		{
			// The cap is a power-of-two multiple of the floor: doubling
			// that lands exactly on it is still the cap, not beyond.
			name: "doubling lands exactly on cap",
			c:    rtoConn(base, 0, 0, 3),
			want: 8 * eventq.Millisecond,
		},
		{
			// The floor of the largest accepted BaseRTT with saturated
			// backoff: the doubling itself must not wrap.
			name: "floor at the int64 limit, saturated backoff",
			c:    rtoConn(limit, 0, 0, 16),
			want: 32 * limit,
		},
		{
			// Before the first RTT sample the timeout is the conservative
			// ceiling, not the floor, with or without back-off.
			name: "no sample, no backoff",
			c:    noSample(rtoConn(base, 0, 0, 0)),
			want: 8 * eventq.Millisecond,
		},
		{
			name: "no sample, saturated backoff",
			c:    noSample(rtoConn(limit, 0, 0, 16)),
			want: 32 * limit,
		},
	}
	for _, tc := range cases {
		got := tc.c.rto()
		if got <= 0 {
			t.Errorf("%s: rto() = %v (overflowed negative or zero)", tc.name, got)
			continue
		}
		if got != tc.want {
			t.Errorf("%s: rto() = %v, want %v", tc.name, got, tc.want)
		}
		if _, max := tc.c.params.rtoBounds(); got > max {
			t.Errorf("%s: rto() = %v exceeds the ceiling %v", tc.name, got, max)
		}
	}
}
