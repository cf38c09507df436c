package baselines

// Dedicated unit tests for the MPRDMA controller: table-driven checks of
// the per-ACK AIMD rule and its clamp edges. Scenario-level behaviour
// (ramp-up, incast queue bounds) lives in baselines_test.go.

import (
	"testing"

	"uno/internal/eventq"
	"uno/internal/simtest"
	"uno/internal/transport"
)

// mprdmaFixture returns a live Conn whose own controller is a throwaway;
// tests drive a fresh MPRDMA against it directly.
func mprdmaFixture(t *testing.T) *transport.Conn {
	t.Helper()
	in := simtest.NewIncast(4, bw100G, []eventq.Time{eventq.Microsecond}, simtest.PortConfig())
	return start(t, in, 0, 1, 64<<20, NewMPRDMA())
}

func TestMPRDMAInitDefaults(t *testing.T) {
	conn := mprdmaFixture(t)
	mss := float64(conn.MTUWire())

	cc := NewMPRDMA()
	cc.Init(conn)
	if got := conn.Cwnd(); got != 16*mss {
		t.Fatalf("initial cwnd = %v, want 16 packets = %v", got, 16*mss)
	}
}

func TestMPRDMAOnAckTable(t *testing.T) {
	conn := mprdmaFixture(t)
	mss := float64(conn.MTUWire())

	cases := []struct {
		name string
		cwnd float64
		ack  transport.AckInfo
		want float64
	}{
		{"unmarked ack grows by mss^2/cwnd",
			10 * mss, transport.AckInfo{Bytes: 4160}, 10*mss + mss/10},
		{"marked ack shrinks by half an mss",
			10 * mss, transport.AckInfo{Bytes: 4160, Marked: true}, 9.5 * mss},
		{"marked duplicate still shrinks",
			10 * mss, transport.AckInfo{Bytes: 0, Marked: true}, 9.5 * mss},
		{"unmarked duplicate (zero bytes) leaves window alone",
			10 * mss, transport.AckInfo{Bytes: 0}, 10 * mss},
		{"growth clamps at maxCwnd",
			maxCwnd - 1, transport.AckInfo{Bytes: 4160}, maxCwnd},
		{"shrink clamps at the one-packet floor",
			mss + 1, transport.AckInfo{Bytes: 4160, Marked: true}, mss},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cc := NewMPRDMA()
			cc.Init(conn)
			conn.SetCwnd(tc.cwnd)
			cc.OnAck(conn, tc.ack)
			if got := conn.Cwnd(); !approx(got, tc.want) {
				t.Fatalf("cwnd = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestMPRDMATimeoutCollapsesToOnePacket(t *testing.T) {
	conn := mprdmaFixture(t)
	cc := NewMPRDMA()
	cc.Init(conn)
	conn.SetCwnd(64 * float64(conn.MTUWire()))
	cc.OnTimeout(conn)
	if got, want := conn.Cwnd(), float64(conn.MTUWire()); got != want {
		t.Fatalf("post-timeout cwnd = %v, want one packet %v", got, want)
	}
}
