package packet

import (
	"testing"
	"testing/quick"
)

func TestChecksumRFC1071Example(t *testing.T) {
	// Worked example from RFC 1071 §3: the ones'-complement sum of
	// {00 01, f2 03, f4 f5, f6 f7} is ddf2 with carries folded.
	data := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Checksum(data); got != ^uint16(0xddf2) {
		t.Errorf("Checksum = %#04x, want %#04x", got, ^uint16(0xddf2))
	}
}

func TestChecksumOddLength(t *testing.T) {
	// Odd trailing byte is padded with zero on the right.
	if Checksum([]byte{0xab}) != ^uint16(0xab00) {
		t.Errorf("odd-length checksum wrong: %#04x", Checksum([]byte{0xab}))
	}
}

func TestChecksumEmpty(t *testing.T) {
	if Checksum(nil) != 0xFFFF {
		t.Errorf("empty checksum = %#04x, want 0xffff", Checksum(nil))
	}
}

// Property: appending the checksum of data (as two big-endian bytes) to
// data yields a buffer whose checksum verifies to zero. This is exactly
// how IP header validation works.
func TestChecksumSelfVerifies(t *testing.T) {
	f := func(data []byte) bool {
		// The self-verification property requires even-length data; the
		// protocols here always checksum even-length header regions.
		if len(data)%2 == 1 {
			data = append(data, 0)
		}
		ck := Checksum(data)
		withCk := append(append([]byte(nil), data...), byte(ck>>8), byte(ck))
		return Checksum(withCk) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: the checksum is independent of how the data is split across
// the accumulator (linearity of the ones'-complement sum over 16-bit
// aligned boundaries).
func TestChecksumSplitInvariance(t *testing.T) {
	f := func(a, b []byte) bool {
		if len(a)%2 == 1 {
			a = append(a, 0)
		}
		joined := append(append([]byte(nil), a...), b...)
		split := finishChecksum(sumWords(sumWords(0, a), b))
		return Checksum(joined) == split
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: sumWords' 8-byte steps and the IPv4 parser's unrolled
// 20-byte headerChecksum agree exactly with the word-at-a-time
// reference, including the all-zero and all-ones corners.
func TestChecksumFastPathsMatchReference(t *testing.T) {
	reference := func(data []byte) uint16 {
		var sum uint32
		for i := 0; i+1 < len(data); i += 2 {
			sum += uint32(data[i])<<8 | uint32(data[i+1])
		}
		if len(data)%2 == 1 {
			sum += uint32(data[len(data)-1]) << 8
		}
		return finishChecksum(sum)
	}
	f := func(data []byte, hdr [IPv4HeaderLen]byte) bool {
		return Checksum(data) == reference(data) && headerChecksum(hdr[:]) == reference(hdr[:])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	for _, fill := range []byte{0x00, 0xFF, 0x80} {
		var hdr [IPv4HeaderLen]byte
		for i := range hdr {
			hdr[i] = fill
		}
		if got, want := headerChecksum(hdr[:]), reference(hdr[:]); got != want {
			t.Errorf("fill %#02x: headerChecksum = %#04x, want %#04x", fill, got, want)
		}
	}
}

func TestPseudoHeaderSum(t *testing.T) {
	src := MustParseAddr("10.0.0.1")
	dst := MustParseAddr("10.0.0.2")
	got := pseudoHeaderSum(src, dst, ProtoUDP, 12)
	want := uint32(0x0a00+0x0001+0x0a00+0x0002) + 17 + 12
	if got != want {
		t.Errorf("pseudoHeaderSum = %#x, want %#x", got, want)
	}
}
