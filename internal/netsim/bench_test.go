package netsim

import (
	"testing"
	"time"

	"repro/internal/ecn"
	"repro/internal/packet"
)

// BenchmarkSimSchedule compares the timing wheel against the heap
// fallback on the mixed near/far timer workload (ScheduleBenchWorkload,
// shared with cmd/benchreport). Registered in scripts/perf_gate.sh:
// both variants must stay at 0 allocs/op.
func BenchmarkSimSchedule(b *testing.B) {
	for _, sched := range []Scheduler{SchedWheel, SchedHeap} {
		b.Run("sched="+sched.Name(), func(b *testing.B) {
			s := NewSimSched(1, sched)
			ScheduleBenchWorkload(s, 4096) // warm slab, free list, wheel due buffer
			b.ReportAllocs()
			b.ResetTimer()
			ScheduleBenchWorkload(s, b.N)
		})
	}
}

// BenchmarkSimScheduleSparse runs the same comparison on the sparse-
// timeline kernel (ScheduleBenchWorkloadSparse): a near-empty pending
// set with whole windows between instants, the shape real campaigns
// spend most of their virtual time in — and the regime where the wheel
// beats the heap. Also registered in scripts/perf_gate.sh's allocs
// gate.
func BenchmarkSimScheduleSparse(b *testing.B) {
	for _, sched := range []Scheduler{SchedWheel, SchedHeap} {
		b.Run("sched="+sched.Name(), func(b *testing.B) {
			s := NewSimSched(1, sched)
			ScheduleBenchWorkloadSparse(s, 4096)
			b.ReportAllocs()
			b.ResetTimer()
			ScheduleBenchWorkloadSparse(s, b.N)
		})
	}
}

// TestSimScheduleAllocFree pins the scheduler hot path at zero
// allocations per event on both schedulers once pools are warm.
func TestSimScheduleAllocFree(t *testing.T) {
	for _, sched := range []Scheduler{SchedWheel, SchedHeap} {
		s := NewSimSched(1, sched)
		ScheduleBenchWorkload(s, 8192) // warm up
		if allocs := testing.AllocsPerRun(10, func() { ScheduleBenchWorkload(s, 1024) }); allocs > 0 {
			t.Errorf("%s scheduler: %.1f allocs per 1024-event batch, want 0", sched.Name(), allocs)
		}
	}
}

func BenchmarkEventLoop(b *testing.B) {
	s := NewSim(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.After(time.Duration(i%1000)*time.Microsecond, func() {})
		if i%1024 == 0 {
			s.Run()
		}
	}
	s.Run()
}

// BenchmarkForwardingPath measures one packet crossing a five-router
// path: the simulator's hottest loop (parse, TTL, checksum, route). The
// first four router hops take the passive-hop fast path, the last
// delivers to an attached host through Router.Receive. Registered in
// scripts/perf_gate.sh: it must stay at 0 allocs/op.
func BenchmarkForwardingPath(b *testing.B) {
	sim := NewSim(1)
	n := NewNetwork(sim)
	routers := make([]*Router, 5)
	for i := range routers {
		routers[i] = n.AddRouter("r", packet.AddrFrom4(10, 255, byte(i), 1), uint32(i))
	}
	for i := 0; i+1 < len(routers); i++ {
		n.Connect(routers[i], routers[i+1], 0, 0)
	}
	h1, _ := n.AddHost("h1", packet.AddrFrom4(10, 0, 0, 1))
	h2, _ := n.AddHost("h2", packet.AddrFrom4(10, 0, 1, 1))
	n.Attach(h1, routers[0], 0, 0)
	n.Attach(h2, routers[4], 0, 0)
	if err := n.ComputeRoutes(); err != nil {
		b.Fatal(err)
	}
	delivered := 0
	h2.BindUDP(9, func(*Host, packet.IPv4Header, packet.UDPHeader, []byte) { delivered++ })

	payload := make([]byte, 48)
	const warm = 64 // fill the buffer pool and event slab
	for i := 0; i < warm; i++ {
		h1.SendUDP(h2.Addr(), 1, 9, 64, ecn.ECT0, payload)
		sim.Run()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h1.SendUDP(h2.Addr(), 1, 9, 64, ecn.ECT0, payload)
		sim.Run()
	}
	if delivered != warm+b.N {
		b.Fatalf("delivered %d of %d", delivered, warm+b.N)
	}
}

func BenchmarkComputeRoutes(b *testing.B) {
	sim := NewSim(1)
	n := NewNetwork(sim)
	const nr = 200
	routers := make([]*Router, nr)
	for i := range routers {
		routers[i] = n.AddRouter("r", packet.AddrFrom4(10, byte(i>>8), byte(i), 1), uint32(i))
	}
	for i := 1; i < nr; i++ {
		n.Connect(routers[i], routers[i/2], 0, 0) // binary-tree fabric
		if i%7 == 0 {
			n.Connect(routers[i], routers[(i*3)%nr], 0, 0)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := n.ComputeRoutes(); err != nil {
			b.Fatal(err)
		}
	}
}
