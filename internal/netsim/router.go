package netsim

import (
	"repro/internal/packet"
)

// Verdict is a middlebox policy decision about a transit packet.
type Verdict uint8

// Policy verdicts.
const (
	Pass Verdict = iota // forward the (possibly mutated) packet
	Drop                // discard silently, as the study's middleboxes do
)

// Policy is a middlebox behaviour attached to a router. Apply may mutate
// the wire bytes in place (e.g. bleach the ECN field, fixing the header
// checksum) and returns a verdict. Policies run on ingress, before TTL
// handling, so a policy's rewrite is visible in the ICMP quotation the
// same router generates — matching a middlebox deployed immediately in
// front of the router.
type Policy interface {
	Apply(r *Router, wire []byte) Verdict
	// Name identifies the policy kind in topology dumps and tests.
	Name() string
}

// Router is an IP forwarding node. It applies its middlebox policies,
// decrements TTL (emitting RFC 792 time-exceeded errors with quotations
// when it hits zero), and forwards along topology-computed routes.
type Router struct {
	net      *Network
	id       int
	label    string
	addr     packet.Addr
	asn      uint32
	links    []*Link
	policies []Policy
	// hostLinks maps directly attached host addresses to their access
	// links; the general routing table handles everything else.
	hostLinks map[packet.Addr]*Link

	ipID uint16

	// Telemetry for the traceroute analysis and tests.
	Forwarded    uint64
	PolicyDrops  uint64
	TTLExpiries  uint64
	NoRouteDrops uint64
}

// Label implements Node.
func (r *Router) Label() string { return r.label }

// Addr returns the router's own address (the source of its ICMP errors).
func (r *Router) Addr() packet.Addr { return r.addr }

// ASN returns the autonomous system the router belongs to.
func (r *Router) ASN() uint32 { return r.asn }

// ID returns the router's dense index within its Network.
func (r *Router) ID() int { return r.id }

// AddPolicy attaches a middlebox policy. Policies run in attachment order.
func (r *Router) AddPolicy(p Policy) { r.policies = append(r.policies, p) }

// Policies returns the attached policies (for topology dumps).
func (r *Router) Policies() []Policy { return r.policies }

// Receive implements Node: the router forwarding path. The buffer
// reference is forwarded along the route when the packet survives and
// released on every drop path.
func (r *Router) Receive(b *packet.Buf, from *Link) {
	wire := b.Bytes()
	for _, p := range r.policies {
		if p.Apply(r, wire) == Drop {
			r.PolicyDrops++
			b.Release()
			return
		}
	}

	ip, _, err := packet.ParseIPv4(wire)
	if err != nil {
		b.Release()
		return // corrupt packets die here, as in a real forwarding plane
	}

	// Local delivery to the router's own address: routers terminate no
	// transport protocols in this model, so such packets are absorbed.
	if ip.Dst == r.addr {
		b.Release()
		return
	}

	ttl, err := packet.DecrementWireTTL(wire)
	if err != nil {
		b.Release()
		return
	}
	if ttl == 0 {
		r.TTLExpiries++
		r.sendTimeExceeded(ip, wire)
		b.Release()
		return
	}

	link := r.route(ip.Dst)
	if link == nil {
		r.NoRouteDrops++
		b.Release()
		return
	}
	r.Forwarded++
	link.send(link.routerDir(r), b)
}

// passiveEgress is the passive-hop fast path's test, offered by
// Sim.Step for every delivery to a router without policies. A hop is
// passive when Receive would run nothing but its plain forwarding
// branch onto a lossless, unshaped link: the header validates (the full
// ParseIPv4 check, as Receive makes), the destination is neither this
// router nor a host attached here but a host elsewhere, the TTL
// survives the decrement, and the egress direction draws no loss and
// has no bottleneck. For such a hop it applies that branch's effects —
// TTL decrement with incremental checksum, the Forwarded and link sent
// counts — and returns the egress link and direction; the caller then
// re-files the event where Link.Send would have scheduled it
// (Sim.refile). Any other hop returns nil having changed nothing but
// ev.dst, and Receive runs unchanged.
//
// ev.dst carries the destination's attachment router between hops:
// the first router hop resolves it from the host map once, later hops
// index the next-hop table with it directly.
func (r *Router) passiveEgress(ev *event) (*Link, int) {
	wire := ev.buf.Bytes()
	dst, ttl, err := packet.ForwardingHeader(wire)
	if err != nil || dst == r.addr || ttl < 2 || !r.net.routed {
		return nil, 0
	}
	if ev.dst < 0 {
		if ev.dst = r.net.hostRouter(dst); ev.dst < 0 {
			return nil, 0
		}
	}
	if int(ev.dst) == r.id {
		return nil, 0
	}
	li := r.net.nextHop[r.id][ev.dst]
	if li < 0 {
		return nil, 0
	}
	link := r.net.links[li]
	d := link.routerDir(r)
	if link.loss[d] > 0 || link.bneck[d] != nil {
		return nil, 0
	}
	if _, err := packet.DecrementWireTTL(wire); err != nil {
		return nil, 0
	}
	r.Forwarded++
	link.sent[d]++
	return link, d
}

// route picks the egress link for dst: a directly attached host wins,
// otherwise the network's next-hop table toward the destination's
// attachment router decides.
func (r *Router) route(dst packet.Addr) *Link {
	if l, ok := r.hostLinks[dst]; ok {
		return l
	}
	return r.net.nextHopLink(r, dst)
}

// sendTimeExceeded emits the ICMP error that traceroute elicits. Per
// common router practice the quotation covers the IP header plus eight
// payload bytes of the datagram *as it arrived here* — including any ECN
// rewrite an upstream (or local ingress) middlebox applied, which is
// exactly the signal the Section 4.2 analysis extracts. No time-exceeded
// is generated about ICMP errors themselves (RFC 1122 §3.2.2).
func (r *Router) sendTimeExceeded(ip packet.IPv4Header, dropped []byte) {
	if ip.Protocol == packet.ProtoICMP {
		if msg, err := packet.ParseICMP(dropped[packet.IPv4HeaderLen:]); err == nil {
			if msg.Type == packet.ICMPTimeExceeded || msg.Type == packet.ICMPDestUnreachable {
				return
			}
		}
	}
	r.ipID++
	reply, err := packet.BuildICMPBuf(r.addr, ip.Src, 64, r.ipID, packet.NewTimeExceeded(dropped))
	if err != nil {
		return
	}
	if link := r.route(ip.Src); link != nil {
		link.send(link.routerDir(r), reply)
		return
	}
	reply.Release()
}
