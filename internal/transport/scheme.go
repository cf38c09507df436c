package transport

import (
	"fmt"
	"os"
	"sync/atomic"
)

// ECScheme selects the erasure-coding scheme of a flow's EC framing.
//
// The packet format is shared: every coded packet names a (Block, BlockIdx)
// pair, the first dataCount ids of a block are source packets, and ids
// beyond are redundancy. Under the fixed-rate Reed-Solomon scheme the id
// space ends at dataCount+Parity and any dataCount distinct packets decode
// the block (MDS counting). Under the rateless fountain scheme BlockIdx is
// the LT symbol id: its neighbor set derives deterministically from
// (flow, block, id), fresh repair symbols can be minted past the scheduled
// ones on demand, and the block decodes at any id set whose neighbor sets
// reach full rank.
type ECScheme uint8

const (
	// SchemeAuto resolves to the package default (UNO_EC / the -ec flag),
	// which is SchemeRS unless overridden.
	SchemeAuto ECScheme = iota
	// SchemeRS is the paper's fixed-rate systematic Reed-Solomon framing.
	SchemeRS
	// SchemeFountain is the rateless LT-style framing (DESIGN.md §3.9).
	SchemeFountain
)

// ecSchemeDefault is what Params.withDefaults resolves SchemeAuto to.
// Atomic because harness workers build flows from worker goroutines while
// flag parsing may set it.
var ecSchemeDefault atomic.Uint32

// A malformed UNO_EC ends the process — a test binary included, so a typo in
// ci.sh cannot silently run the default scheme — with the status and one-line
// message a bad -ec flag gets, not a panic trace.
func init() {
	ecSchemeDefault.Store(uint32(SchemeRS))
	if v := os.Getenv("UNO_EC"); v != "" {
		s, err := ParseECScheme(v)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		ecSchemeDefault.Store(uint32(s))
	}
}

// ParseECScheme parses a -ec flag / UNO_EC value.
func ParseECScheme(s string) (ECScheme, error) {
	switch s {
	case "rs82", "rs":
		return SchemeRS, nil
	case "fountain", "lt":
		return SchemeFountain, nil
	}
	return SchemeAuto, fmt.Errorf("transport: unknown EC scheme %q (want rs82 or fountain)", s)
}

// ECSchemeName returns the flag spelling of s.
func ECSchemeName(s ECScheme) string {
	switch s {
	case SchemeFountain:
		return "fountain"
	case SchemeRS:
		return "rs82"
	}
	return "auto"
}

// SetECSchemeDefault makes subsequently started EC flows with Scheme ==
// SchemeAuto use scheme s (the cmd/unosim -ec flag and the UNO_EC
// environment variable land here). SchemeAuto restores the built-in
// default (SchemeRS).
func SetECSchemeDefault(s ECScheme) {
	if s == SchemeAuto {
		s = SchemeRS
	}
	ecSchemeDefault.Store(uint32(s))
}

// ECSchemeDefault returns the scheme SchemeAuto currently resolves to.
func ECSchemeDefault() ECScheme { return ECScheme(ecSchemeDefault.Load()) }
