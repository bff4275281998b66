package netsim

import (
	"fmt"
	"time"

	"repro/internal/packet"
)

// Network is the registry of routers, hosts and links plus the routing
// fabric. The topology package populates it; ComputeRoutes must be called
// after the graph is final and before traffic flows.
type Network struct {
	Sim *Sim

	routers []*Router
	hosts   []*Host
	links   []*Link

	// hostAttach maps a host address to its host and attachment router.
	hostAttach map[packet.Addr]hostAttachment

	// nextHop[src][dst] is the index (into links) of the link router
	// #src uses toward router #dst; -1 means unreachable. Built by
	// ComputeRoutes or shared read-only across Networks via
	// ExportRoutes/ImportRoutes — indices, not pointers, so networks
	// instantiated from one frozen topology can share a single table.
	nextHop [][]int32
	routed  bool
}

// RouteTable is a frozen forwarding table: for every (source router,
// destination router) pair, the index of the egress link in the owning
// Network's creation-order link slice. It is immutable once exported and
// safe to share across concurrently-running Networks whose graphs were
// built by an identical construction sequence.
type RouteTable struct {
	nextHop [][]int32
	routers int
	links   int
}

type hostAttachment struct {
	host     *Host
	routerID int
}

// NewNetwork creates an empty network on sim.
func NewNetwork(sim *Sim) *Network {
	return &Network{
		Sim:        sim,
		hostAttach: make(map[packet.Addr]hostAttachment),
	}
}

// AddRouter registers a router with its own address and AS number.
func (n *Network) AddRouter(label string, addr packet.Addr, asn uint32) *Router {
	r := &Router{
		net:       n,
		id:        len(n.routers),
		label:     label,
		addr:      addr,
		asn:       asn,
		hostLinks: make(map[packet.Addr]*Link),
	}
	n.routers = append(n.routers, r)
	n.routed = false
	return r
}

// AddHost registers a host. It starts online but unattached; call Attach.
func (n *Network) AddHost(label string, addr packet.Addr) (*Host, error) {
	if _, dup := n.hostAttach[addr]; dup {
		return nil, fmt.Errorf("netsim: duplicate host address %s", addr)
	}
	h := &Host{
		sim:      n.Sim,
		net:      n,
		label:    label,
		addr:     addr,
		online:   true,
		udpPorts: make(map[uint16]UDPHandler),
		protos:   make(map[packet.Protocol]ProtoHandler),
	}
	n.hosts = append(n.hosts, h)
	n.hostAttach[addr] = hostAttachment{host: h} // router set on Attach
	return h, nil
}

// Connect joins two routers with a link.
func (n *Network) Connect(a, b *Router, delay time.Duration, loss float64) *Link {
	l := newLink(n.Sim, a, b, delay, loss)
	a.links = append(a.links, l)
	b.links = append(b.links, l)
	n.links = append(n.links, l)
	n.routed = false
	return l
}

// Attach gives a host its access link to a router and registers the
// host's address for delivery.
func (n *Network) Attach(h *Host, r *Router, delay time.Duration, loss float64) (*Link, error) {
	if h.uplink != nil {
		return nil, fmt.Errorf("netsim: host %s already attached", h.label)
	}
	l := newLink(n.Sim, h, r, delay, loss)
	h.uplink = l
	r.hostLinks[h.addr] = l
	n.links = append(n.links, l)
	att := n.hostAttach[h.addr]
	att.routerID = r.id
	n.hostAttach[h.addr] = att
	return l, nil
}

// ReplaceAttachment moves an already-attached host behind a different
// router (the topology generator uses this to slot a dedicated firewall
// router in front of selected servers). The old access link is removed.
func (n *Network) ReplaceAttachment(h *Host, to *Router, delay time.Duration) (*Link, error) {
	if h.uplink == nil {
		return nil, fmt.Errorf("netsim: host %s not attached", h.label)
	}
	if old, ok := h.uplink.Peer(h).(*Router); ok {
		delete(old.hostLinks, h.addr)
	}
	for i, l := range n.links {
		if l == h.uplink {
			n.links = append(n.links[:i], n.links[i+1:]...)
			break
		}
	}
	h.uplink = nil
	return n.Attach(h, to, delay, 0)
}

// Routers returns the registered routers in creation order.
func (n *Network) Routers() []*Router { return n.routers }

// Hosts returns the registered hosts in creation order.
func (n *Network) Hosts() []*Host { return n.hosts }

// HostByAddr finds a host by address.
func (n *Network) HostByAddr(a packet.Addr) (*Host, bool) {
	att, ok := n.hostAttach[a]
	if !ok || att.host == nil {
		return nil, false
	}
	return att.host, true
}

// AttachmentRouter returns the router a host address hangs off.
func (n *Network) AttachmentRouter(a packet.Addr) (*Router, bool) {
	att, ok := n.hostAttach[a]
	if !ok || att.host == nil || att.host.uplink == nil {
		return nil, false
	}
	return n.routers[att.routerID], true
}

// ComputeRoutes builds shortest-path next-hop tables with one BFS per
// router. Ties break toward the earliest-created neighbour link, which is
// deterministic and stable — paths do not flap between runs, matching the
// study's observation that the same servers fail from every vantage point.
func (n *Network) ComputeRoutes() error {
	nr := len(n.routers)
	// adjacency: router id -> (neighbor id, link index)
	type edge struct {
		to   int
		link int32
	}
	adj := make([][]edge, nr)
	for li, l := range n.links {
		ra, aOK := l.a.(*Router)
		rb, bOK := l.b.(*Router)
		if aOK && bOK {
			adj[ra.id] = append(adj[ra.id], edge{rb.id, int32(li)})
			adj[rb.id] = append(adj[rb.id], edge{ra.id, int32(li)})
		}
	}

	n.nextHop = make([][]int32, nr)
	queue := make([]int, 0, nr)
	parentLink := make([]int32, nr)
	visited := make([]bool, nr)

	for src := 0; src < nr; src++ {
		for i := range visited {
			visited[i] = false
			parentLink[i] = -1
		}
		queue = queue[:0]
		queue = append(queue, src)
		visited[src] = true
		for qi := 0; qi < len(queue); qi++ {
			cur := queue[qi]
			for _, e := range adj[cur] {
				if visited[e.to] {
					continue
				}
				visited[e.to] = true
				if cur == src {
					parentLink[e.to] = e.link // first hop out of src
				} else {
					parentLink[e.to] = parentLink[cur]
				}
				queue = append(queue, e.to)
			}
		}
		row := make([]int32, nr)
		copy(row, parentLink)
		n.nextHop[src] = row
	}
	n.routed = true
	return nil
}

// ExportRoutes freezes the computed forwarding tables for reuse. The
// returned table shares this Network's backing arrays; neither may be
// mutated afterwards (the Network never does — routes are only ever
// recomputed wholesale, which allocates fresh rows).
func (n *Network) ExportRoutes() (*RouteTable, error) {
	if !n.routed {
		return nil, fmt.Errorf("netsim: ExportRoutes before ComputeRoutes")
	}
	return &RouteTable{nextHop: n.nextHop, routers: len(n.routers), links: len(n.links)}, nil
}

// ImportRoutes installs a shared forwarding table instead of running
// ComputeRoutes. The Network's graph must have been built by the same
// construction sequence as the table's origin — same routers, same links,
// in the same creation order — which the router and link counts check
// cheaply; the topology blueprint guarantees the rest by replaying one
// recorded build.
func (n *Network) ImportRoutes(rt *RouteTable) error {
	if rt == nil {
		return fmt.Errorf("netsim: ImportRoutes with nil table")
	}
	if len(n.routers) != rt.routers || len(n.links) != rt.links {
		return fmt.Errorf("netsim: route table shape mismatch: network has %d routers / %d links, table %d / %d",
			len(n.routers), len(n.links), rt.routers, rt.links)
	}
	n.nextHop = rt.nextHop
	n.routed = true
	return nil
}

// nextHopLink resolves the egress link from router r toward the
// attachment router of dst. Returns nil when dst is unknown or
// unreachable.
func (n *Network) nextHopLink(r *Router, dst packet.Addr) *Link {
	if !n.routed {
		panic("netsim: ComputeRoutes not called")
	}
	rid := n.hostRouter(dst)
	if rid < 0 {
		// Not a host address: maybe a router address (for ICMP replies to
		// traceroute we must route *toward* routers too).
		if rid, ok := n.routerIDByAddr(dst); ok {
			if rid == r.id {
				return nil
			}
			return n.linkAt(n.nextHop[r.id][rid])
		}
		return nil
	}
	if int(rid) == r.id {
		return r.hostLinks[dst]
	}
	return n.linkAt(n.nextHop[r.id][rid])
}

// hostRouter returns the dense id of the router an attached host
// address hangs off, or -1 when dst is not an attached host.
func (n *Network) hostRouter(dst packet.Addr) int32 {
	att, ok := n.hostAttach[dst]
	if !ok || att.host == nil || att.host.uplink == nil {
		return -1
	}
	return int32(att.routerID)
}

// linkAt resolves a next-hop index to the link object, nil for -1.
func (n *Network) linkAt(idx int32) *Link {
	if idx < 0 {
		return nil
	}
	return n.links[idx]
}

// routerIDByAddr performs a linear scan; router-addressed traffic (ICMP
// from traceroute replies toward routers) is rare, and topologies keep a
// few hundred routers, so this stays off any hot path. A map would work
// too, but the scan keeps construction allocation-free.
func (n *Network) routerIDByAddr(a packet.Addr) (int, bool) {
	for _, r := range n.routers {
		if r.addr == a {
			return r.id, true
		}
	}
	return 0, false
}

// PathRouters traces the routing-table path from a source host to a
// destination address, returning the router sequence a packet would
// traverse. Analysis code uses this as ground truth when validating what
// traceroute inferred.
func (n *Network) PathRouters(from *Host, dst packet.Addr) ([]*Router, error) {
	if !n.routed {
		return nil, fmt.Errorf("netsim: ComputeRoutes not called")
	}
	if from.uplink == nil {
		return nil, fmt.Errorf("netsim: host %s not attached", from.label)
	}
	cur, _ := from.uplink.Peer(from).(*Router)
	var path []*Router
	for hops := 0; cur != nil && hops < 1024; hops++ {
		path = append(path, cur)
		if _, direct := cur.hostLinks[dst]; direct {
			return path, nil
		}
		if dst == cur.addr {
			return path, nil
		}
		link := n.nextHopLink(cur, dst)
		if link == nil {
			return path, fmt.Errorf("netsim: no route from %s to %s", cur.label, dst)
		}
		next, ok := link.Peer(cur).(*Router)
		if !ok {
			return path, nil
		}
		cur = next
	}
	return path, fmt.Errorf("netsim: path from %s to %s too long", from.label, dst)
}
