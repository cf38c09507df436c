package transport

import (
	"math"
	"testing"

	"uno/internal/eventq"
)

// Regression tests for the sender's rto clamp-and-backoff arithmetic. The
// pre-fix code doubled the estimate up to 16 times before comparing
// against MaxRTO, so a large srtt+4*rttvar estimate could wrap int64
// picoseconds negative before the guard ever tripped. rto() only reads
// params and the RTT estimator fields, so a bare sender is enough.

// rtoConn builds a sender with just the fields rto() consumes. It has an
// RTT sample (a zero one leaves MinRTO as the base): the clamp and the
// back-off only apply once it does.
func rtoConn(min, max eventq.Time, srtt, rttvar eventq.Time, backoff uint8) *sender {
	c := &sender{params: Params{MinRTO: min, MaxRTO: max}}
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
	cases := []struct {
		name string
		c    *sender
		want eventq.Time
	}{
		{
			// Pre-fix failure: est ≈ 3/4·MaxInt64 wraps negative on the
			// first doubling and the 16 rounds return garbage.
			name: "huge estimate, unbounded cap, saturated backoff",
			c:    rtoConn(eventq.Millisecond, huge, huge/4, huge/8, 16),
			want: huge,
		},
		{
			// Estimate already past the cap must clamp before any backoff.
			name: "estimate above cap",
			c:    rtoConn(eventq.Millisecond, 10*eventq.Millisecond, eventq.Second, eventq.Second, 0),
			want: 10 * eventq.Millisecond,
		},
		{
			// Backoff walks up to the cap and sticks there.
			name: "backoff saturates at cap",
			c:    rtoConn(eventq.Millisecond, 5*eventq.Millisecond, 0, 0, 16),
			want: 5 * eventq.Millisecond,
		},
		{
			// Tiny MinRTO with saturated backoff stays exact (1 ps × 2^16),
			// well under the cap: backoff must not over-clamp.
			name: "tiny MinRTO, exact doubling",
			c:    rtoConn(eventq.Picosecond, eventq.Second, 0, 0, 16),
			want: eventq.Time(1) << 16,
		},
		{
			// Cap exactly a power-of-two multiple of the base: doubling
			// that lands exactly on MaxRTO is still MaxRTO, not beyond.
			name: "doubling lands exactly on cap",
			c:    rtoConn(eventq.Millisecond, 8*eventq.Millisecond, 0, 0, 3),
			want: 8 * eventq.Millisecond,
		},
		{
			// MinRTO just below an unbounded cap with saturated backoff:
			// the doubling itself must not wrap.
			name: "near-cap base, saturated backoff",
			c:    rtoConn(huge-1, huge, 0, 0, 16),
			want: huge,
		},
		{
			// Before the first RTT sample the timeout is the conservative
			// MaxRTO, not MinRTO, with or without back-off.
			name: "no sample, no backoff",
			c:    noSample(rtoConn(eventq.Millisecond, 8*eventq.Millisecond, 0, 0, 0)),
			want: 8 * eventq.Millisecond,
		},
		{
			name: "no sample, saturated backoff",
			c:    noSample(rtoConn(eventq.Millisecond, huge, 0, 0, 16)),
			want: huge,
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
		if got > tc.c.params.MaxRTO {
			t.Errorf("%s: rto() = %v exceeds MaxRTO %v", tc.name, got, tc.c.params.MaxRTO)
		}
	}
}
