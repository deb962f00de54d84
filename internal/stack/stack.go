// Package stack implements the host IPv4 network stack used by the test
// client, the test server, and the control planes of the emulated home
// gateways: interface management, ARP, a routing table supporting the
// paper's "interface-specific routes only" client configuration, ICMP
// processing, and demultiplexing to transport protocols.
package stack

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"net/netip"
	"time"

	"hgw/internal/netem"
	"hgw/internal/netpkt"
	"hgw/internal/sim"
)

// DefaultTTL is the initial TTL of locally originated packets.
const DefaultTTL = 64

// arpTimeout is how long a packet waits for ARP resolution before it is
// dropped.
const arpTimeout = time.Second

// ProtoHandler receives a locally addressed IP packet for one transport
// protocol.
type ProtoHandler func(ifc *NetIf, ip *netpkt.IPv4)

// ICMPListener observes ICMP messages addressed to the host. For error
// messages, inner is the parsed embedded datagram (nil if unparseable).
type ICMPListener func(from netip.Addr, ic *netpkt.ICMP, inner *netpkt.IPv4)

// Host is an IPv4 endpoint with one or more interfaces.
type Host struct {
	S    *sim.Sim
	Name string

	ifaces []*NetIf
	local  map[netip.Addr]int // interfaces per assigned address, for IsLocal
	protos map[uint8]ProtoHandler

	// routes is the routing table in insertion order. index maps each
	// IPv4 prefix in it, by masked address and length, to the position
	// of the latest route for that prefix; plens has bit b set while
	// index holds a /b prefix, so Lookup probes only lengths present.
	routes []Route
	index  map[routeKey]int
	plens  uint64

	icmpListeners []ICMPListener

	// RawHook, if set, sees every received IPv4 packet (local or not)
	// before normal processing; returning true consumes the packet. The
	// ICMP prober uses it to "hijack" flows as in the paper's §3.2.3.
	RawHook func(ifc *NetIf, ip *netpkt.IPv4) bool

	// ForwardHook, if set, receives packets whose destination is not
	// local. Home gateways install their NAT engine here. Without it,
	// non-local packets are dropped (hosts do not forward).
	ForwardHook func(ifc *NetIf, ip *netpkt.IPv4)

	// DropBadIPChecksum controls whether packets failing IP header
	// checksum verification are discarded (true for ordinary hosts).
	DropBadIPChecksum bool

	ipID      uint16
	ethSerial uint64
}

// NewHost creates a host with no interfaces.
func NewHost(s *sim.Sim, name string) *Host {
	return &Host{
		S:                 s,
		Name:              name,
		local:             make(map[netip.Addr]int),
		protos:            make(map[uint8]ProtoHandler),
		index:             make(map[routeKey]int),
		DropBadIPChecksum: true,
	}
}

// Route is a routing-table entry. Packets matching Prefix are sent out
// If toward NextHop (or directly to the destination if NextHop is the
// zero Addr, i.e. an on-link route).
type Route struct {
	Prefix  netip.Prefix
	NextHop netip.Addr
	If      *NetIf
}

// routeKey identifies an IPv4 prefix: its masked network address and
// its length.
type routeKey struct {
	addr uint32
	bits uint8
}

// NetIf is a configured network interface of a Host.
type NetIf struct {
	Host  *Host
	Link  *netem.Iface
	Addr  netip.Addr // written only by AddIf and SetAddr (IsLocal indexes it)
	Plen  int        // prefix length of the connected subnet
	name  string
	arp   map[netip.Addr]netpkt.MAC
	await map[netip.Addr][][]byte // marshaled packets waiting on ARP, by next hop
}

// Name returns the interface name.
func (n *NetIf) Name() string { return n.name }

// Prefix returns the connected subnet.
func (n *NetIf) Prefix() netip.Prefix {
	p, _ := n.Addr.Prefix(n.Plen)
	return p
}

// NewMAC returns a deterministic, host-unique MAC address.
func (h *Host) NewMAC() netpkt.MAC {
	h.ethSerial++
	var m netpkt.MAC
	m[0] = 0x02 // locally administered
	sum := uint64(0)
	for _, c := range h.Name {
		sum = sum*131 + uint64(c)
	}
	m[1] = byte(sum >> 8)
	m[2] = byte(sum)
	m[3] = byte(h.ethSerial >> 16)
	m[4] = byte(h.ethSerial >> 8)
	m[5] = byte(h.ethSerial)
	return m
}

// AddIf creates an interface with the given name and (possibly zero)
// address. The returned NetIf's Link field is ready to be connected with
// netem.Connect.
func (h *Host) AddIf(name string, addr netip.Addr, plen int) *NetIf {
	n := &NetIf{
		Host:  h,
		Addr:  addr,
		Plen:  plen,
		name:  name,
		arp:   make(map[netip.Addr]netpkt.MAC),
		await: make(map[netip.Addr][][]byte),
	}
	n.Link = &netem.Iface{Name: h.Name + "." + name, MAC: h.NewMAC()}
	n.Link.Recv = func(f *netpkt.Frame) { h.recvFrame(n, f) }
	h.ifaces = append(h.ifaces, n)
	h.local[addr]++
	if addr.IsValid() && plen > 0 {
		h.AddRoute(n.Prefix(), netip.Addr{}, n)
	}
	return n
}

// SetAddr reconfigures an interface address (e.g. after DHCP) and
// installs the connected route.
func (n *NetIf) SetAddr(addr netip.Addr, plen int) {
	h := n.Host
	if h.local[n.Addr]--; h.local[n.Addr] == 0 {
		delete(h.local, n.Addr)
	}
	h.local[addr]++
	n.Addr = addr
	n.Plen = plen
	h.AddRoute(n.Prefix(), netip.Addr{}, n)
}

// Ifaces returns the host's interfaces.
func (h *Host) Ifaces() []*NetIf { return h.ifaces }

// AddRoute installs a route. More-specific prefixes win; among equal
// prefixes the most recently added wins. Only IPv4 prefixes are
// routable; an invalid or IPv6 prefix never matches.
func (h *Host) AddRoute(prefix netip.Prefix, nextHop netip.Addr, ifc *NetIf) {
	h.routes = append(h.routes, Route{Prefix: prefix, NextHop: nextHop, If: ifc})
	h.indexRoute(len(h.routes) - 1)
}

// indexRoute points the index entry for routes[i]'s prefix at i,
// replacing any earlier route for the same prefix.
func (h *Host) indexRoute(i int) {
	p := h.routes[i].Prefix
	if !p.IsValid() || !p.Addr().Is4() {
		return
	}
	b := p.Bits()
	h.index[routeKey{addr4(p.Addr()) & prefixMask(b), uint8(b)}] = i
	h.plens |= 1 << b
}

// RemoveRoutesVia removes all routes using the given interface and
// rebuilds the index, so a removed route uncovers any earlier route for
// the same prefix that it had replaced.
func (h *Host) RemoveRoutesVia(ifc *NetIf) {
	out := h.routes[:0]
	for _, r := range h.routes {
		if r.If != ifc {
			out = append(out, r)
		}
	}
	h.routes = out
	clear(h.index)
	h.plens = 0
	for i := range h.routes {
		h.indexRoute(i)
	}
}

// Lookup finds the best route for dst: the longest matching prefix,
// and among equal prefixes the latest added. It probes the index once
// per prefix length present, longest first.
func (h *Host) Lookup(dst netip.Addr) (Route, bool) {
	if !dst.Is4() {
		return Route{}, false
	}
	d := addr4(dst)
	for m := h.plens; m != 0; {
		b := bits.Len64(m) - 1
		m &^= 1 << b
		if i, ok := h.index[routeKey{d & prefixMask(b), uint8(b)}]; ok {
			return h.routes[i], true
		}
	}
	return Route{}, false
}

// addr4 returns an IPv4 address as a big-endian integer.
func addr4(a netip.Addr) uint32 {
	b := a.As4()
	return binary.BigEndian.Uint32(b[:])
}

// prefixMask returns the network mask of a /b prefix (0 for /0).
func prefixMask(b int) uint32 { return ^uint32(0) << (32 - b) }

// Handle registers the handler for an IP protocol number.
func (h *Host) Handle(proto uint8, fn ProtoHandler) { h.protos[proto] = fn }

// ListenICMP registers an ICMP observer.
func (h *Host) ListenICMP(fn ICMPListener) { h.icmpListeners = append(h.icmpListeners, fn) }

// NextIPID returns a fresh IP identification value.
func (h *Host) NextIPID() uint16 {
	h.ipID++
	return h.ipID
}

// Send routes and transmits an IP packet. The TTL and ID fields are
// filled in if zero. Packets with no route are dropped and false is
// returned. Send does not retain ip or its buffers: the packet is
// marshaled before Send returns, so the caller may reuse or release it.
func (h *Host) Send(ip *netpkt.IPv4) bool {
	r, ok := h.Lookup(ip.Dst)
	if !ok {
		return false
	}
	h.SendRoute(r, ip)
	return true
}

// SendRoute transmits ip along r, a route Lookup returned for ip.Dst:
// out of r.If toward its next hop, or directly to ip.Dst on-link. It is
// Send for a caller that already holds the route, and does not retain
// ip either.
func (h *Host) SendRoute(r Route, ip *netpkt.IPv4) {
	nh := r.NextHop
	if !nh.IsValid() {
		nh = ip.Dst
	}
	h.SendVia(r.If, nh, ip)
}

// SendVia transmits ip out of a specific interface toward nextHop,
// resolving the next hop's MAC with ARP as needed. Like Send it does
// not retain ip: the TTL, ID and source address are assigned first, so
// the bytes marshaled here are final even when they wait on ARP.
func (h *Host) SendVia(ifc *NetIf, nextHop netip.Addr, ip *netpkt.IPv4) {
	if ip.TTL == 0 {
		ip.TTL = DefaultTTL
	}
	if ip.ID == 0 {
		ip.ID = h.NextIPID()
	}
	if !ip.Src.IsValid() {
		ip.Src = ifc.Addr
	}
	wire := ip.MarshalPooled()
	if ip.Dst == netip.AddrFrom4([4]byte{255, 255, 255, 255}) {
		ifc.sendIP(netpkt.BroadcastMAC, wire)
		return
	}
	if mac, ok := ifc.arp[nextHop]; ok {
		ifc.sendIP(mac, wire)
		return
	}
	// Queue behind ARP resolution. The queue owns the marshaled packet
	// until resolution sends it or the timeout recycles it.
	first := len(ifc.await[nextHop]) == 0
	ifc.await[nextHop] = append(ifc.await[nextHop], wire)
	if first {
		ifc.sendARPRequest(nextHop)
		h.S.After(arpTimeout, func() {
			if _, ok := ifc.arp[nextHop]; !ok {
				// Unresolved: drop the queue.
				for _, b := range ifc.await[nextHop] {
					netpkt.PutBuf(b)
				}
				delete(ifc.await, nextHop)
			}
		})
	}
}

// sendIP hands marshaled IPv4 bytes to the link in a frame addressed to
// dst. The frame takes ownership of wire.
func (n *NetIf) sendIP(dst netpkt.MAC, wire []byte) {
	f := netpkt.GetFrame()
	f.Dst, f.Src = dst, n.Link.MAC
	f.Type, f.Payload = netpkt.EtherTypeIPv4, wire
	n.Link.Send(f)
}

func (n *NetIf) sendARPRequest(target netip.Addr) {
	req := &netpkt.ARP{
		Op:        netpkt.ARPRequest,
		SenderMAC: n.Link.MAC,
		SenderIP:  n.Addr,
		TargetIP:  target,
	}
	f := netpkt.GetFrame()
	f.Dst, f.Src = netpkt.BroadcastMAC, n.Link.MAC
	f.Type, f.Payload = netpkt.EtherTypeARP, req.AppendMarshal(netpkt.GetBuf(28))
	n.Link.Send(f)
}

// AddARP seeds a static ARP entry (used by tests and by DHCP clients that
// learned the server's MAC from the exchange).
func (n *NetIf) AddARP(addr netip.Addr, mac netpkt.MAC) { n.arp[addr] = mac }

func (h *Host) recvFrame(ifc *NetIf, f *netpkt.Frame) {
	if !f.Dst.IsBroadcast() && f.Dst != ifc.Link.MAC {
		// Not for us (switch flooded it). The frame dies here unparsed,
		// so it can be recycled immediately.
		netpkt.PutBuf(f.Payload)
		netpkt.PutFrame(f)
		return
	}
	switch f.Type {
	case netpkt.EtherTypeARP:
		h.recvARP(ifc, f)
		// ParseARP copies everything it keeps; the buffer is dead.
		netpkt.PutBuf(f.Payload)
	case netpkt.EtherTypeIPv4:
		h.recvIP(ifc, f)
	}
	// The frame struct itself dies with this delivery (parsed views
	// alias only the payload buffer).
	netpkt.PutFrame(f)
}

func (h *Host) recvARP(ifc *NetIf, f *netpkt.Frame) {
	a, err := netpkt.ParseARP(f.Payload)
	if err != nil {
		return
	}
	if a.SenderIP.IsValid() && !a.SenderMAC.IsZero() {
		ifc.arp[a.SenderIP] = a.SenderMAC
		// Flush packets waiting on this resolution.
		if q := ifc.await[a.SenderIP]; len(q) > 0 {
			delete(ifc.await, a.SenderIP)
			for _, wire := range q {
				ifc.sendIP(a.SenderMAC, wire)
			}
		}
	}
	if a.Op == netpkt.ARPRequest && a.TargetIP == ifc.Addr && ifc.Addr.IsValid() {
		reply := &netpkt.ARP{
			Op:        netpkt.ARPReply,
			SenderMAC: ifc.Link.MAC,
			SenderIP:  ifc.Addr,
			TargetMAC: a.SenderMAC,
			TargetIP:  a.SenderIP,
		}
		f := netpkt.GetFrame()
		f.Dst, f.Src = a.SenderMAC, ifc.Link.MAC
		f.Type, f.Payload = netpkt.EtherTypeARP, reply.AppendMarshal(netpkt.GetBuf(28))
		ifc.Link.Send(f)
	}
}

// IsLocal reports whether addr is assigned to one of the host's
// interfaces or is a broadcast address.
func (h *Host) IsLocal(addr netip.Addr) bool {
	if addr == netip.AddrFrom4([4]byte{255, 255, 255, 255}) {
		return true
	}
	return h.local[addr] > 0
}

func (h *Host) recvIP(ifc *NetIf, f *netpkt.Frame) {
	// The parse aliases f.Payload; from here on the parsed packet owns
	// the buffer (forwarding queues and transport stacks may retain
	// it), so only the drop paths below — where the view provably dies
	// — recycle it here, and otherwise the packet's last consumer
	// releases it, or nobody does (DESIGN.md §9).
	ip, err := netpkt.ParseIPv4(f.Payload)
	if err != nil {
		if ip == nil {
			netpkt.PutBuf(f.Payload)
			return
		}
		if err == netpkt.ErrBadChecksum && h.DropBadIPChecksum {
			ip.Release()
			return
		}
	}
	if h.RawHook != nil && h.RawHook(ifc, ip) {
		return
	}
	if !h.IsLocal(ip.Dst) {
		if h.ForwardHook != nil {
			h.ForwardHook(ifc, ip)
		}
		return
	}
	// Honor Record Route for locally delivered packets (few gateways do
	// on the forwarding path; the quirk lives in the gateway package).
	if len(ip.Options) > 0 {
		netpkt.RecordRoute(ip.Options, ifc.Addr)
	}
	if ip.Protocol == netpkt.ProtoICMP {
		h.recvICMP(ifc, ip)
		return
	}
	if fn, ok := h.protos[ip.Protocol]; ok {
		fn(ifc, ip)
		return
	}
	// No handler: emit Protocol Unreachable, mirroring a real host.
	h.SendICMPError(ip, netpkt.ICMPDestUnreachable, netpkt.ICMPCodeProtoUnreachable, 0)
}

func (h *Host) recvICMP(ifc *NetIf, ip *netpkt.IPv4) {
	ic, err := netpkt.ParseICMP(ip.Payload, true)
	if err != nil {
		return
	}
	if ic.Type == netpkt.ICMPEchoRequest {
		reply := &netpkt.ICMP{Type: netpkt.ICMPEchoReply, Rest: ic.Rest, Body: ic.Body}
		h.Send(&netpkt.IPv4{
			Protocol: netpkt.ProtoICMP,
			Src:      ip.Dst, Dst: ip.Src,
			Payload: reply.Marshal(),
		})
		return
	}
	var inner *netpkt.IPv4
	if ic.IsError() && len(ic.Body) >= 20 {
		inner, _ = netpkt.ParseIPv4Lenient(ic.Body)
	}
	for _, fn := range h.icmpListeners {
		fn(ip.Src, ic, inner)
	}
}

// SendICMPError emits an ICMP error about the received packet orig,
// embedding its IP header plus up to 64 bytes of payload (enough for any
// full transport header, so NATs can translate and re-checksum the
// embedded headers). rest is the second header word (e.g. next-hop MTU
// for Fragmentation Needed).
func (h *Host) SendICMPError(orig *netpkt.IPv4, typ, code uint8, rest uint32) bool {
	// Never generate errors about ICMP errors (RFC 1122).
	if orig.Protocol == netpkt.ProtoICMP {
		if ic, err := netpkt.ParseICMP(orig.Payload, false); err == nil && ic.IsError() {
			return false
		}
	}
	body := orig.Marshal()
	maxBody := orig.HeaderLen() + 64
	if len(body) > maxBody {
		body = body[:maxBody]
	}
	ic := &netpkt.ICMP{Type: typ, Code: code, Rest: rest, Body: body}
	return h.Send(&netpkt.IPv4{
		Protocol: netpkt.ProtoICMP,
		Dst:      orig.Src,
		Payload:  ic.Marshal(),
	})
}

// Ping sends an ICMP echo request to dst and returns true when a reply
// arrives within timeout. It must be called from a simulator process.
func (h *Host) Ping(p *sim.Proc, dst netip.Addr, timeout time.Duration) bool {
	id := uint32(h.NextIPID())<<16 | 1
	got := sim.NewChan[struct{}](h.S)
	h.ListenICMP(func(from netip.Addr, ic *netpkt.ICMP, inner *netpkt.IPv4) {
		if ic.Type == netpkt.ICMPEchoReply && ic.Rest == id {
			got.Send(struct{}{})
		}
	})
	req := &netpkt.ICMP{Type: netpkt.ICMPEchoRequest, Rest: id, Body: []byte("hgw-ping")}
	if !h.Send(&netpkt.IPv4{Protocol: netpkt.ProtoICMP, Dst: dst, Payload: req.Marshal()}) {
		return false
	}
	_, ok := got.Recv(p, timeout)
	return ok
}

// String implements fmt.Stringer.
func (h *Host) String() string { return fmt.Sprintf("host(%s)", h.Name) }
