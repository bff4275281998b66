package packet

import (
	"testing"

	"repro/internal/ecn"
)

func BenchmarkChecksum1500(b *testing.B) {
	data := make([]byte, 1500)
	for i := range data {
		data[i] = byte(i)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Checksum(data)
	}
}

func BenchmarkBuildUDP(b *testing.B) {
	src := MustParseAddr("10.0.0.1")
	dst := MustParseAddr("10.0.0.2")
	payload := make([]byte, 48) // NTP-sized
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildUDP(src, dst, 123, 123, 64, ecn.ECT0, uint16(i), payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeUDP(b *testing.B) {
	src := MustParseAddr("10.0.0.1")
	dst := MustParseAddr("10.0.0.2")
	wire, _ := BuildUDP(src, dst, 123, 123, 64, ecn.ECT0, 7, make([]byte, 48))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(wire); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildUDPBuf is the pooled steady-state send path: serialize
// a complete datagram into a pooled buffer, then release it. The
// perf-gate CI job fails if this ever reports allocations.
func BenchmarkBuildUDPBuf(b *testing.B) {
	src := MustParseAddr("10.0.0.1")
	dst := MustParseAddr("10.0.0.2")
	payload := make([]byte, 48) // NTP-sized
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bf, err := BuildUDPBuf(src, dst, 123, 123, 64, ecn.ECT0, uint16(i), payload)
		if err != nil {
			b.Fatal(err)
		}
		bf.Release()
	}
}

// TestBuildUDPBufAllocFree pins the zero-allocation property of the
// pooled build path once the buffer pool is warm.
func TestBuildUDPBufAllocFree(t *testing.T) {
	src := MustParseAddr("10.0.0.1")
	dst := MustParseAddr("10.0.0.2")
	payload := make([]byte, 48)
	step := func() {
		bf, err := BuildUDPBuf(src, dst, 123, 123, 64, ecn.ECT0, 7, payload)
		if err != nil {
			t.Fatal(err)
		}
		bf.Release()
	}
	step() // warm the pool
	if n := testing.AllocsPerRun(500, step); n > 0 {
		t.Errorf("pooled BuildUDPBuf allocates %.2f objects/op, want 0", n)
	}
}

func BenchmarkDecrementWireTTL(b *testing.B) {
	src := MustParseAddr("10.0.0.1")
	dst := MustParseAddr("10.0.0.2")
	wire, _ := BuildUDP(src, dst, 123, 123, 255, ecn.ECT0, 7, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wire[8] = 255 // reset so decrement never exhausts
		if _, err := DecrementWireTTL(wire); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSetWireECN compares the live incremental-checksum CE
// re-mark (RFC 1624) against the full header recompute it replaced;
// the "full" sub-benchmark is the pre-pooling reference
// implementation, kept so the speedup stays measurable.
func BenchmarkSetWireECN(b *testing.B) {
	src := MustParseAddr("10.0.0.1")
	dst := MustParseAddr("10.0.0.2")
	fullRecompute := func(wire []byte, c ecn.Codepoint) {
		wire[1] = ecn.SetTOS(wire[1], c)
		wire[10], wire[11] = 0, 0
		ck := Checksum(wire[:IPv4HeaderLen])
		wire[10], wire[11] = byte(ck>>8), byte(ck)
	}
	b.Run("incremental", func(b *testing.B) {
		wire, _ := BuildUDP(src, dst, 123, 123, 64, ecn.ECT0, 7, nil)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cp := ecn.ECT0
			if i%2 == 1 {
				cp = ecn.NotECT
			}
			if err := SetWireECN(wire, cp); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full-recompute", func(b *testing.B) {
		wire, _ := BuildUDP(src, dst, 123, 123, 64, ecn.ECT0, 7, nil)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cp := ecn.ECT0
			if i%2 == 1 {
				cp = ecn.NotECT
			}
			fullRecompute(wire, cp)
		}
	})
}

// BenchmarkForwardingHeader is the header validation every router hop
// pays on the forwarding fast path: version, lengths, header checksum.
func BenchmarkForwardingHeader(b *testing.B) {
	wire, _ := BuildUDP(MustParseAddr("10.0.0.1"), MustParseAddr("10.0.0.2"), 123, 123, 64, ecn.ECT0, 7, make([]byte, 48))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ForwardingHeader(wire); err != nil {
			b.Fatal(err)
		}
	}
}
