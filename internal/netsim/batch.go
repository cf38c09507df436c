package netsim

import (
	"fmt"
	"os"
	"sync/atomic"
)

// Batched link delivery coalesces per-packet arrival scheduling: instead
// of one scheduler insert per packet in flight, each link keeps a FIFO of
// (time, seq, packet) arrivals and walks it with a single reusable timer
// (see Link.deliver). Delivery times and order are provably identical —
// the seq is reserved at the moment the eager path would have scheduled —
// so every golden digest is byte-identical under either mode; the toggle
// exists so CI can pin both modes differentially.

// batchDefault is what New() captures into each Network. Atomic because
// harness workers construct networks from worker goroutines while a main
// goroutine (flag parsing, TestMain) may set the default.
//
// The default is unbatched. Batched delivery wins when a link's next
// arrival is often the next event in the whole simulation — the bursty
// idle-link shape BenchmarkLinkDelivery isolates, where the inline drain
// (Scheduler.InlineNext) skips the insert/cascade/pop cycle entirely. In
// pipelined fabric traffic some other link's arrival almost always
// intervenes: Scheduler.InlineStats measures a 0.4% inline rate on the
// end-to-end throughput scenario (0.25% when every forwarded packet also
// had a transmit-done event of its own), so batching there pays the
// arrival-FIFO and probe overhead with no skipped scheduling, and
// interleaved A/B minima put it ~5–10% behind unbatched. Both modes stay
// digest-identical and CI pins them differentially.
var batchDefault atomic.Bool

func init() {
	batchDefault.Store(false)
	if v := os.Getenv("UNO_BATCH"); v != "" {
		b, err := ParseBatch(v)
		if err != nil {
			panic(err)
		}
		batchDefault.Store(b)
	}
}

// ParseBatch parses a -batch flag / UNO_BATCH value.
func ParseBatch(s string) (bool, error) {
	switch s {
	case "on", "true", "1":
		return true, nil
	case "off", "false", "0":
		return false, nil
	}
	return false, fmt.Errorf("netsim: unknown batch mode %q (want on or off)", s)
}

// BatchMode returns the flag spelling of b ("on", "off").
func BatchMode(b bool) string {
	if b {
		return "on"
	}
	return "off"
}

// SetBatchDefault makes subsequently created Networks use (or not use)
// batched link delivery (the cmd/unosim -batch flag and the UNO_BATCH
// environment variable land here).
func SetBatchDefault(b bool) { batchDefault.Store(b) }

// BatchDefault returns the mode New() currently captures.
func BatchDefault() bool { return batchDefault.Load() }
