package packet

import "encoding/binary"

// Checksum computes the Internet checksum (RFC 1071) over data: the ones'
// complement of the ones'-complement sum of the data taken as big-endian
// 16-bit words, with a trailing odd byte padded with zero.
func Checksum(data []byte) uint16 {
	return finishChecksum(sumWords(0, data))
}

// sumWords folds data into an ongoing 32-bit ones'-complement accumulator.
// It adds four big-endian words per 8-byte load; uint32 addition is
// associative, so the accumulator equals the word-at-a-time sum exactly.
func sumWords(sum uint32, data []byte) uint32 {
	for len(data) >= 8 {
		x := binary.BigEndian.Uint64(data)
		sum += uint32(x>>48) + uint32(x>>32)&0xFFFF + uint32(x>>16)&0xFFFF + uint32(x)&0xFFFF
		data = data[8:]
	}
	for len(data) >= 2 {
		sum += uint32(data[0])<<8 | uint32(data[1])
		data = data[2:]
	}
	if len(data) == 1 {
		sum += uint32(data[0]) << 8
	}
	return sum
}

// finishChecksum folds the carries and complements the accumulator.
func finishChecksum(sum uint32) uint16 {
	for sum>>16 != 0 {
		sum = (sum & 0xFFFF) + (sum >> 16)
	}
	return ^uint16(sum)
}

// incChecksum updates an Internet checksum after one 16-bit header word
// changed from old to new, per RFC 1624 equation 3:
//
//	HC' = ~(~HC + ~m + m')
//
// Equation 3 (rather than the withdrawn RFC 1141 form) is required for
// correctness when the updated sum is zero; the wire fuzz tests check
// equivalence against a full recompute for every mutation the
// simulator performs.
func incChecksum(hc, oldWord, newWord uint16) uint16 {
	sum := uint32(^hc&0xFFFF) + uint32(^oldWord&0xFFFF) + uint32(newWord)
	for sum>>16 != 0 {
		sum = (sum & 0xFFFF) + (sum >> 16)
	}
	return ^uint16(sum)
}

// pseudoHeaderSum seeds a checksum accumulator with the IPv4 pseudo-header
// used by the UDP and TCP checksums (RFC 768, RFC 793): source address,
// destination address, zero, protocol, and transport segment length.
func pseudoHeaderSum(src, dst Addr, proto Protocol, segLen int) uint32 {
	var sum uint32
	sum += uint32(src[0])<<8 | uint32(src[1])
	sum += uint32(src[2])<<8 | uint32(src[3])
	sum += uint32(dst[0])<<8 | uint32(dst[1])
	sum += uint32(dst[2])<<8 | uint32(dst[3])
	sum += uint32(proto)
	sum += uint32(segLen)
	return sum
}

// transportChecksum computes the checksum of a UDP datagram or TCP segment
// including its pseudo-header. seg must have its checksum field zeroed.
func transportChecksum(src, dst Addr, proto Protocol, seg []byte) uint16 {
	return finishChecksum(sumWords(pseudoHeaderSum(src, dst, proto, len(seg)), seg))
}
