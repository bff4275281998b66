package netsim

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/aqm"
	"repro/internal/ecn"
	"repro/internal/packet"
)

// bleachECN is an ECN-bleaching middlebox: it rewrites every transit
// packet to not-ECT, the mutation the paper's Fig. 4 counts.
type bleachECN struct{}

func (bleachECN) Apply(_ *Router, wire []byte) Verdict {
	if err := packet.SetWireECN(wire, ecn.NotECT); err != nil {
		return Drop
	}
	return Pass
}
func (bleachECN) Name() string { return "bleach" }

// forwardingRun is everything observable about one run of the hostile
// topology: the delivery transcript plus every counter the forwarding
// path touches.
type forwardingRun struct {
	transcript  []string
	seq         uint64
	executed    uint64
	live        int
	nextRand    int64
	routers     []string
	links       []string
	passiveHops uint64
}

// runHostileForwarding builds a topology that puts every fast-path
// fallback mid-path and drives mixed traffic through it:
//
//	hA - rA \                                          / hD (lossy access)
//	         r0 - r1 = r2 - r3* - r4 - r5 ~ r6 - r7 - r8 - r9
//	hB - rB /                                          \ hE
//
// r1=r2 is a RED bottleneck with background load, r3* carries an
// ECN-bleaching policy, r5~r6 is lossy, and r9's access link toward hD
// is lossy. hA and hB send in the same nanosecond over equal-delay paths,
// so their packets tie at r0 and their order is decided by seq alone.
// The traffic mixes host-to-host datagrams, traceroute-style TTLs that
// expire at passive routers, router-addressed packets, an unroutable
// destination and headers with corrupted checksums.
func runHostileForwarding(t *testing.T, sched Scheduler, xmode XTrafficMode, perHop bool) forwardingRun {
	t.Helper()
	sim := NewSimSched(7, sched)
	sim.SetXTrafficMode(xmode)
	sim.SetPerHopOracle(perHop)
	n := NewNetwork(sim)
	addRouter := func(name string, i int) *Router {
		return n.AddRouter(name, packet.AddrFrom4(10, 255, byte(i), 1), uint32(100+i))
	}
	chain := make([]*Router, 10)
	for i := range chain {
		chain[i] = addRouter(fmt.Sprintf("r%d", i), i)
	}
	rA, rB := addRouter("rA", 20), addRouter("rB", 21)
	const hop = 3 * time.Millisecond
	n.Connect(rA, chain[0], hop, 0)
	n.Connect(rB, chain[0], hop, 0)
	var lossy, shaped *Link
	for i := 0; i+1 < len(chain); i++ {
		l := n.Connect(chain[i], chain[i+1], hop+time.Duration(i)*time.Microsecond, 0)
		switch i {
		case 1:
			shaped = l
		case 5:
			l.SetLossBoth(0.3)
			lossy = l
		}
	}
	chain[3].AddPolicy(bleachECN{})
	shaped.SetBottleneck(chain[1], 500_000, 0.6, aqm.NewRED(24, sim.RNG()))

	host := func(name string, a, b byte, r *Router, loss float64) *Host {
		h, err := n.AddHost(name, packet.AddrFrom4(10, 0, a, b))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := n.Attach(h, r, time.Millisecond, loss); err != nil {
			t.Fatal(err)
		}
		return h
	}
	hA := host("hA", 0, 1, rA, 0)
	hB := host("hB", 0, 2, rB, 0)
	hD := host("hD", 1, 1, chain[9], 0)
	hE := host("hE", 1, 2, chain[9], 0)
	hD.Uplink().SetLoss(chain[9], 0.2)
	if err := n.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}

	var run forwardingRun
	for _, h := range []*Host{hA, hB, hD, hE} {
		h.RespondPortUnreachable = true
		h.AddTap(func(dir TapDirection, at time.Duration, wire []byte) {
			if dir == TapIn {
				run.transcript = append(run.transcript, fmt.Sprintf("%v %s %x", at, h.Label(), wire))
			}
		})
	}

	unroutable := packet.AddrFrom4(10, 9, 9, 9)
	payload := make([]byte, 96)
	for i := 0; i < 400; i++ {
		at := time.Duration(i/2) * 2 * time.Millisecond
		sim.At(at, func() {
			payload[0] = byte(i)
			cp := []ecn.Codepoint{ecn.ECT0, ecn.NotECT, ecn.ECT1, ecn.CE}[i%4]
			// Both sources fire in the same instant with identical paths.
			for _, src := range []*Host{hA, hB} {
				dst, ttl := hD.Addr(), uint8(64)
				switch i % 10 {
				case 1:
					dst = hE.Addr()
				case 2:
					ttl = uint8(1 + i/10%14) // expires along the chain
				case 3:
					dst = chain[5].Addr() // router-addressed, past the policy
				case 4:
					dst = unroutable
				case 5:
					dst = chain[1].Addr()
				}
				if i%10 == 6 {
					wire, err := packet.BuildUDP(src.Addr(), dst, 4000, 9, ttl, cp, src.NextIPID(), payload)
					if err != nil {
						t.Error(err)
						return
					}
					wire[10] ^= 0x5A // corrupt the header checksum
					src.SendRaw(wire)
					continue
				}
				if err := src.SendUDP(dst, 4000, 9, ttl, cp, payload); err != nil {
					t.Error(err)
				}
			}
		})
	}
	sim.Run()

	run.seq, run.executed, run.live = sim.seq, sim.executed, sim.live
	run.nextRand = sim.RNG().Int63()
	run.passiveHops = sim.PassiveHops()
	for _, r := range n.Routers() {
		run.routers = append(run.routers, fmt.Sprintf("%s fwd=%d policy=%d ttl=%d noroute=%d",
			r.Label(), r.Forwarded, r.PolicyDrops, r.TTLExpiries, r.NoRouteDrops))
	}
	for i, l := range n.links {
		run.links = append(run.links, fmt.Sprintf("link%d sent=%v dropped=%v", i, l.sent, l.dropped))
	}
	// The topology must actually exercise every fallback, or the
	// differential proves nothing about them.
	if !perHop && run.passiveHops == 0 {
		t.Error("fast path never engaged")
	}
	if chain[4].TTLExpiries == 0 || rA.NoRouteDrops == 0 || chain[3].Forwarded == 0 {
		t.Errorf("fallbacks not exercised: r4 ttl=%d rA noroute=%d r3 fwd=%d",
			chain[4].TTLExpiries, rA.NoRouteDrops, chain[3].Forwarded)
	}
	if _, dropped := lossy.Stats(chain[5]); dropped == 0 {
		t.Error("lossy link dropped nothing")
	}
	if st := shaped.BottleneckQueue(chain[1]).Stats(); st.WireECT == 0 || st.WireCEMarked == 0 {
		t.Errorf("bottleneck saw no marked foreground traffic: %+v", st)
	}
	return run
}

// TestPassiveHopFastPathDifferential runs the hostile topology with the
// fast path and with the per-hop oracle (every delivery through
// Node.Receive) and demands identical transcripts — time, order and
// bytes of every delivery — plus identical seq counter, event count,
// PRNG position and per-router and per-link counters, on both
// schedulers and both cross-traffic drives.
func TestPassiveHopFastPathDifferential(t *testing.T) {
	for _, sched := range []Scheduler{SchedWheel, SchedHeap} {
		for _, xmode := range []XTrafficMode{XTrafficLazy, XTrafficEvents} {
			t.Run(sched.Name()+"/"+xmode.Name(), func(t *testing.T) {
				fast := runHostileForwarding(t, sched, xmode, false)
				oracle := runHostileForwarding(t, sched, xmode, true)
				if oracle.passiveHops != 0 {
					t.Fatalf("oracle took the fast path %d times", oracle.passiveHops)
				}
				if len(fast.transcript) == 0 {
					t.Fatal("nothing delivered")
				}
				if len(fast.transcript) != len(oracle.transcript) {
					t.Errorf("transcript length %d, oracle %d", len(fast.transcript), len(oracle.transcript))
				}
				for i := range min(len(fast.transcript), len(oracle.transcript)) {
					if fast.transcript[i] != oracle.transcript[i] {
						t.Fatalf("delivery %d differs:\n fast   %s\n oracle %s", i, fast.transcript[i], oracle.transcript[i])
					}
				}
				t.Logf("%d deliveries, %d of %d events were passive hops; routers %v",
					len(fast.transcript), fast.passiveHops, fast.executed, fast.routers)
				fast.passiveHops = 0
				if !reflect.DeepEqual(fast, oracle) {
					t.Errorf("end state differs:\n fast   seq=%d executed=%d live=%d rand=%d\n        %v\n        %v\n oracle seq=%d executed=%d live=%d rand=%d\n        %v\n        %v",
						fast.seq, fast.executed, fast.live, fast.nextRand, fast.routers, fast.links,
						oracle.seq, oracle.executed, oracle.live, oracle.nextRand, oracle.routers, oracle.links)
				}
			})
		}
	}
}

// TestForwardingPathAllocFree pins the passive-hop fast path at zero
// allocations once the buffer pool and slab are warm.
func TestForwardingPathAllocFree(t *testing.T) {
	sim := NewSim(1)
	_, h1, h2, _ := lineTopology(t, sim, 6, time.Millisecond)
	h2.BindUDP(9, func(*Host, packet.IPv4Header, packet.UDPHeader, []byte) {})
	payload := make([]byte, 48)
	send := func() {
		if err := h1.SendUDP(h2.Addr(), 1, 9, 64, ecn.ECT0, payload); err != nil {
			t.Fatal(err)
		}
		sim.Run()
	}
	for range 64 {
		send()
	}
	if allocs := testing.AllocsPerRun(100, send); allocs > 0 {
		t.Errorf("%.1f allocs per forwarded packet, want 0", allocs)
	}
	if sim.PassiveHops() == 0 {
		t.Error("fast path never engaged")
	}
}
