// Package trace defines the packet-header traffic model shared by every
// subsystem of the MAWILab reproduction: packets, endpoints, unidirectional
// and bidirectional flow keys, traces, and header-field filters.
//
// The model mirrors what the MAWI archive actually exposes — anonymized
// IPv4 headers with transport ports, TCP flags, ICMP type/code and packet
// sizes, but no payloads — which is exactly the input consumed by the four
// anomaly detectors and by the similarity estimator.
//
// # The flow-table file
//
// An Index's FlowTable has a file form (EncodeFlowTable, DecodeFlowTable):
// what the daemon stores as flows.bin beside a labeling, so that a flow query
// loads the flow table and never decodes the packets. All integers are
// little-endian:
//
//	offset     size  field
//	0          4     magic "MWFT"
//	4          1     version, 1
//	5          4     flow count n (uint32)
//	9          13·n  the flows in canonical order, each
//	                   Src (4) Dst (4) SrcPort (2) DstPort (2) Proto (1)
//	9 + 13·n   4     CRC-32C (Castagnoli) of every byte before it
//
// so a file is exactly 13·n + 13 bytes. The version byte is there because the
// file is a cache of what trace.pcap already says: a later layout bumps it,
// and a reader that meets a version it does not know treats the file as
// absent and falls back to the packets, instead of guessing at the bytes. The
// two postings are not stored: they are a function of the flows (two radix
// sorts, the ones IndexBuilder.Finish runs), storing them would add 8 bytes to
// every 13, and a stored posting that disagreed with its table would have to
// be checked against it at a cost close to the rebuild. The trailer is a
// CRC-32C and not the entry's digest because the digest is over the packet
// columns, which the file does not hold, and because the file guards against
// a torn or rotted write, not an adversary: CRC-32C runs in hardware at
// memory speed, where a sha256 over the table costs more than decoding it.
// DecodeFlowTable also requires the keys strictly ascending, so whatever
// passes can be binary-searched; every rejection wraps ErrFlowTable.
package trace

import (
	"fmt"
	"strconv"
	"strings"
)

// IPv4 is an IPv4 address stored in host byte order. It is comparable and
// cheap to hash, so it can be used directly as a map key, following the
// gopacket Endpoint idiom of "hashable representation of a source or
// destination".
type IPv4 uint32

// MakeIPv4 builds an address from its four dotted-quad octets.
func MakeIPv4(a, b, c, d byte) IPv4 {
	return IPv4(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

// Octets returns the four dotted-quad octets of the address.
func (ip IPv4) Octets() (a, b, c, d byte) {
	return byte(ip >> 24), byte(ip >> 16), byte(ip >> 8), byte(ip)
}

// String renders the address in dotted-quad notation.
func (ip IPv4) String() string {
	a, b, c, d := ip.Octets()
	// strconv over fmt: this is on the hot path of label rendering.
	buf := make([]byte, 0, 15)
	buf = strconv.AppendUint(buf, uint64(a), 10)
	buf = append(buf, '.')
	buf = strconv.AppendUint(buf, uint64(b), 10)
	buf = append(buf, '.')
	buf = strconv.AppendUint(buf, uint64(c), 10)
	buf = append(buf, '.')
	buf = strconv.AppendUint(buf, uint64(d), 10)
	return string(buf)
}

// ParseIPv4 parses a dotted-quad address such as "203.178.148.19".
func ParseIPv4(s string) (IPv4, error) {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return 0, fmt.Errorf("trace: invalid IPv4 %q: want 4 octets, got %d", s, len(parts))
	}
	var ip uint32
	for _, p := range parts {
		n, err := strconv.ParseUint(p, 10, 8)
		if err != nil {
			return 0, fmt.Errorf("trace: invalid IPv4 %q: %v", s, err)
		}
		ip = ip<<8 | uint32(n)
	}
	return IPv4(ip), nil
}
