// Package netpkt models the network packets that flow through the simulated
// data plane: Ethernet frames carrying ARP, IPv4, TCP, UDP and ICMP.
//
// The package provides a flattened Packet view holding the header fields
// an OpenFlow 1.0 switch matches on, a per-layer encoder (with checksums)
// that Marshal builds frames from, one decoder (Parse) that reads a frame
// straight into a Packet without per-layer header structs, and traffic
// generators for both benign flows and the spoofed table-miss floods used
// by the data-to-control plane saturation attack.
package netpkt

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// MAC is a 48-bit Ethernet hardware address.
type MAC [6]byte

// Broadcast is the all-ones Ethernet broadcast address.
var Broadcast = MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// String renders m in the canonical aa:bb:cc:dd:ee:ff form.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// Uint64 packs m into the low 48 bits of a uint64.
func (m MAC) Uint64() uint64 {
	var v uint64
	for _, b := range m {
		v = v<<8 | uint64(b)
	}
	return v
}

// MACFromUint64 unpacks the low 48 bits of v into a MAC.
func MACFromUint64(v uint64) MAC {
	var m MAC
	for i := 5; i >= 0; i-- {
		m[i] = byte(v)
		v >>= 8
	}
	return m
}

// ParseMAC parses the aa:bb:cc:dd:ee:ff form.
func ParseMAC(s string) (MAC, error) {
	var m MAC
	parts := strings.Split(s, ":")
	if len(parts) != 6 {
		return m, fmt.Errorf("netpkt: parse MAC %q: want 6 colon-separated octets", s)
	}
	for i, p := range parts {
		v, err := strconv.ParseUint(p, 16, 8)
		if err != nil {
			return m, fmt.Errorf("netpkt: parse MAC %q: octet %d: %w", s, i, err)
		}
		m[i] = byte(v)
	}
	return m, nil
}

// MustMAC parses s or panics; for tests and fixed fixtures only.
func MustMAC(s string) MAC {
	m, err := ParseMAC(s)
	if err != nil {
		panic(err)
	}
	return m
}

// IPv4 is a 32-bit IPv4 address stored in host-usable integer form.
type IPv4 uint32

// String renders i in dotted-quad form.
func (i IPv4) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(i>>24), byte(i>>16), byte(i>>8), byte(i))
}

// HighBit reports whether the most significant bit of i is set (used by the
// paper's ip_balancer policy to split traffic by source address).
func (i IPv4) HighBit() bool { return i&0x8000_0000 != 0 }

// InPrefix reports whether i falls inside prefix/length.
func (i IPv4) InPrefix(prefix IPv4, length int) bool {
	if length <= 0 {
		return true
	}
	if length >= 32 {
		return i == prefix
	}
	mask := IPv4(^uint32(0) << (32 - length))
	return i&mask == prefix&mask
}

// ParseIPv4 parses dotted-quad form.
func ParseIPv4(s string) (IPv4, error) {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return 0, fmt.Errorf("netpkt: parse IPv4 %q: want 4 octets", s)
	}
	var v uint32
	for i, p := range parts {
		o, err := strconv.ParseUint(p, 10, 8)
		if err != nil {
			return 0, fmt.Errorf("netpkt: parse IPv4 %q: octet %d: %w", s, i, err)
		}
		v = v<<8 | uint32(o)
	}
	return IPv4(v), nil
}

// MustIPv4 parses s or panics; for tests and fixed fixtures only.
func MustIPv4(s string) IPv4 {
	ip, err := ParseIPv4(s)
	if err != nil {
		panic(err)
	}
	return ip
}

// ErrTruncated reports a buffer too short for the layer being decoded.
var ErrTruncated = errors.New("netpkt: truncated packet")
