// Package tcpguard is the TCP-aware defense tier: a SYN proxy that
// answers connection attempts at the data-plane edge with stateless
// SYN cookies, tracks the handshakes that come back in a bounded
// port-sharded connection table, and turns handshake outcomes into
// per-source attribution evidence. The controller never sees a SYN
// that has not proven a live peer behind it.
//
// The design follows LineSwitch (PAPERS.md): the cookie is a keyed
// hash over the 4-tuple and a coarse time window, encoded into the
// SYN-ACK sequence number, so validating the returning ACK needs no
// per-SYN state at all. The connection table exists only for the flows
// that *do* come back: a SYN claims no slot, an ACK whose cookie
// validates claims one, and a valid cookie establishes a connection
// even when the fixed-capacity table has no slot left for it.
package tcpguard

import "floodguard/internal/netpkt"

// Cookie layout, packed into the 32-bit SYN-ACK sequence number:
//
//	bits 31..24  window counter (low 8 bits of the minting window)
//	bits 23..0   truncated MAC over (src, dst, sport, dport, window, key)
//
// The window echo picks the absolute window to recompute the MAC for
// on validation; cookies are honoured for the current and the previous
// window, so a cookie minted in window N validates in N and N+1 and is
// rejected from N+2 on.
const (
	cookieWindowShift = 24
	cookieMACMask     = (1 << cookieWindowShift) - 1
)

// Codec mints and validates stateless SYN cookies. It is a value type
// with no mutable state: safe to share across shards and goroutines.
type Codec struct {
	k0, k1 uint64
}

// NewCodec derives the two keyed-hash lanes from a secret seed.
func NewCodec(secret uint64) Codec {
	return Codec{k0: mix64(secret ^ 0x9e3779b97f4a7c15), k1: mix64(secret + 0xbf58476d1ce4e5b9)}
}

// mix64 is the splitmix64 finalizer: full-avalanche, allocation-free.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func (c Codec) mac(src, dst netpkt.IPv4, sport, dport uint16, window uint32) uint32 {
	h := mix64(c.k0 ^ (uint64(src)<<32 | uint64(dst)))
	h = mix64(h ^ (uint64(sport)<<48 | uint64(dport)<<32 | uint64(window)))
	return uint32(mix64(h^c.k1)) & cookieMACMask
}

// Encode mints the SYN-ACK sequence number answering a SYN from
// src:sport to dst:dport in cookie window w.
func (c Codec) Encode(src, dst netpkt.IPv4, sport, dport uint16, w uint32) uint32 {
	return (w&0xff)<<cookieWindowShift | c.mac(src, dst, sport, dport, w)
}

// Validate checks a cookie extracted from a returning ACK (ack-1)
// against the current window w. The embedded window echo selects which
// absolute window to recompute the MAC for; only w and w-1 are
// accepted.
func (c Codec) Validate(src, dst netpkt.IPv4, sport, dport uint16, w, cookie uint32) bool {
	echo := cookie >> cookieWindowShift
	var mintW uint32
	switch echo {
	case w & 0xff:
		mintW = w
	case (w - 1) & 0xff:
		mintW = w - 1
	default:
		return false
	}
	return cookie&cookieMACMask == c.mac(src, dst, sport, dport, mintW)
}
