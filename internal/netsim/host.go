package netsim

import (
	"fmt"
	"time"

	"repro/internal/ecn"
	"repro/internal/packet"
)

// TapDirection distinguishes packets a tap saw leaving vs arriving.
type TapDirection uint8

// Tap directions.
const (
	TapOut TapDirection = iota
	TapIn
)

// Tap observes every packet a host sends or receives, like a tcpdump
// session running on that machine. The capture package provides recording
// taps; tests install ad-hoc closures.
type Tap func(dir TapDirection, at time.Duration, wire []byte)

// UDPHandler processes a datagram delivered to a bound UDP port.
type UDPHandler func(h *Host, ip packet.IPv4Header, udp packet.UDPHeader, payload []byte)

// ICMPHandler processes an ICMP message delivered to the host.
type ICMPHandler func(h *Host, ip packet.IPv4Header, msg packet.ICMPMessage)

// ProtoHandler processes a raw transport segment for protocols the host
// does not terminate natively (the tcpsim package registers one for TCP).
type ProtoHandler func(h *Host, ip packet.IPv4Header, segment []byte)

// Host is an end system: it owns an address, one access link, a set of
// bound UDP ports, optional protocol handlers, and packet taps.
type Host struct {
	sim    *Sim
	net    *Network
	label  string
	addr   packet.Addr
	uplink *Link

	online bool
	ipID   uint16

	udpPorts  map[uint16]UDPHandler
	icmp      ICMPHandler
	protos    map[packet.Protocol]ProtoHandler
	taps      []Tap
	ephemeral uint16

	// RespondPortUnreachable controls whether UDP datagrams to unbound
	// ports elicit ICMP port-unreachable errors. The study's NTP servers
	// (or firewalls in front of them) do not respond to high-port
	// traceroute probes — traces "generally stop one hop before the
	// destination" — so the default is silent drop.
	RespondPortUnreachable bool

	// Counters.
	Sent     uint64
	Received uint64
}

// Label implements Node.
func (h *Host) Label() string { return h.label }

// Addr returns the host's address.
func (h *Host) Addr() packet.Addr { return h.addr }

// Sim returns the simulation the host lives in, for protocol timers.
func (h *Host) Sim() *Sim { return h.sim }

// Uplink exposes the host's access link so campaigns can vary its loss.
func (h *Host) Uplink() *Link { return h.uplink }

// SetOnline switches the host between answering and dead. An offline
// host drops all traffic silently — modelling the NTP pool's volunteer
// churn, where hosts leave the pool but keep their DNS entries briefly.
func (h *Host) SetOnline(v bool) { h.online = v }

// Online reports whether the host is answering.
func (h *Host) Online() bool { return h.online }

// AddTap installs a packet tap.
func (h *Host) AddTap(t Tap) { h.taps = append(h.taps, t) }

// BindUDP registers a handler for a UDP port. Binding port 0 picks a free
// ephemeral port. The chosen port is returned.
func (h *Host) BindUDP(port uint16, fn UDPHandler) (uint16, error) {
	if port == 0 {
		port = h.nextEphemeral()
	}
	if _, taken := h.udpPorts[port]; taken {
		return 0, fmt.Errorf("netsim: %s: UDP port %d already bound", h.label, port)
	}
	h.udpPorts[port] = fn
	return port, nil
}

// UnbindUDP releases a bound port.
func (h *Host) UnbindUDP(port uint16) { delete(h.udpPorts, port) }

// OnICMP registers the handler invoked for ICMP messages addressed to the
// host (traceroute and probe clients use this to hear time-exceeded and
// port-unreachable errors).
func (h *Host) OnICMP(fn ICMPHandler) { h.icmp = fn }

// RegisterProto installs a raw handler for an IP protocol (e.g. TCP).
func (h *Host) RegisterProto(p packet.Protocol, fn ProtoHandler) {
	h.protos[p] = fn
}

// nextEphemeral hands out ports from the dynamic range, skipping bound
// ones.
func (h *Host) nextEphemeral() uint16 {
	for {
		h.ephemeral++
		if h.ephemeral < 49152 {
			h.ephemeral = 49152
		}
		if _, taken := h.udpPorts[h.ephemeral]; !taken {
			return h.ephemeral
		}
	}
}

// NextIPID returns a fresh IP identification value for outgoing packets.
func (h *Host) NextIPID() uint16 {
	h.ipID++
	return h.ipID
}

// SendUDP builds and transmits a UDP datagram with the given ECN
// codepoint and TTL. It is the primitive under both the NTP prober and
// the traceroute engine. The datagram is serialized into a pooled wire
// buffer, so steady-state sends allocate nothing.
func (h *Host) SendUDP(dst packet.Addr, srcPort, dstPort uint16, ttl uint8, cp ecn.Codepoint, payload []byte) error {
	b, err := packet.BuildUDPBuf(h.addr, dst, srcPort, dstPort, ttl, cp, h.NextIPID(), payload)
	if err != nil {
		return err
	}
	h.SendBuf(b)
	return nil
}

// SendBuf transmits a pre-serialized wire buffer, taking ownership of
// the caller's reference (tcpsim builds segments straight into pooled
// buffers and sends them through here).
func (h *Host) SendBuf(b *packet.Buf) {
	if !h.online {
		b.Release()
		return
	}
	h.Sent++
	if len(h.taps) > 0 {
		wire := b.Bytes()
		for _, t := range h.taps {
			t(TapOut, h.sim.Now(), wire)
		}
	}
	if h.uplink != nil {
		// Network.Attach makes the host endpoint a of its access link.
		h.uplink.send(0, b)
		return
	}
	b.Release()
}

// SendRaw transmits pre-serialized wire bytes, adopting the slice into
// the pooled-buffer world (the caller must relinquish it).
func (h *Host) SendRaw(wire []byte) {
	h.SendBuf(packet.AdoptBuf(wire))
}

// Receive implements Node: demultiplex to the bound socket surface.
// The buffer is released when the handlers return; handlers that keep
// bytes (capture taps, reassembly buffers) copy them.
func (h *Host) Receive(b *packet.Buf, from *Link) {
	defer b.Release()
	if !h.online {
		return
	}
	h.Received++
	wire := b.Bytes()
	for _, t := range h.taps {
		t(TapIn, h.sim.Now(), wire)
	}
	ip, body, err := packet.ParseIPv4(wire)
	if err != nil || ip.Dst != h.addr {
		return
	}
	switch ip.Protocol {
	case packet.ProtoUDP:
		udp, payload, err := packet.ParseUDP(body, ip.Src, ip.Dst)
		if err != nil {
			return
		}
		if fn, ok := h.udpPorts[udp.DstPort]; ok {
			fn(h, ip, udp, payload)
			return
		}
		if h.RespondPortUnreachable {
			h.sendPortUnreachable(wire)
		}
	case packet.ProtoICMP:
		msg, err := packet.ParseICMP(body)
		if err != nil {
			return
		}
		if h.icmp != nil {
			h.icmp(h, ip, msg)
		}
	default:
		if fn, ok := h.protos[ip.Protocol]; ok {
			fn(h, ip, body)
		}
	}
}

// sendPortUnreachable emits the ICMP error a reachable-but-unbound UDP
// port generates.
func (h *Host) sendPortUnreachable(offending []byte) {
	ip, _, err := packet.ParseIPv4(offending)
	if err != nil {
		return
	}
	msg := packet.NewDestUnreachable(packet.ICMPCodePortUnreach, offending)
	b, err := packet.BuildICMPBuf(h.addr, ip.Src, 64, h.NextIPID(), msg)
	if err != nil {
		return
	}
	h.SendBuf(b)
}
