package udp

import (
	"bytes"
	"net/netip"
	"testing"

	"hgw/internal/netpkt"
	"hgw/internal/sim"
	"hgw/internal/stack"
)

// TestAllocsSendTo pins the steady-state UDP send path at zero
// allocations: route lookup, UDP and IPv4 marshal, framing and the link
// hop to the peer host, once ARP has resolved. The peer consumes each
// datagram in its RawHook and releases it, so the receive side
// recycles every buffer the send side draws.
func TestAllocsSendTo(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items; allocation pins do not apply")
	}
	s := sim.New(1)
	_, hb, ua, _ := pair(s)
	t.Cleanup(s.Shutdown)
	dst := netpkt.Addr4(10, 0, 0, 2)
	payload := bytes.Repeat([]byte{0x5a}, 512)
	got := 0
	var u netpkt.UDP
	hb.RawHook = func(ifc *stack.NetIf, ip *netpkt.IPv4) bool {
		if ip.Protocol != netpkt.ProtoUDP {
			return false
		}
		if u.Parse(ip.Payload, ip.Src, ip.Dst, true) == nil && bytes.Equal(u.Payload, payload) {
			got++
		}
		ip.Release()
		return true
	}
	// Unbound, so each send also takes its source address from the
	// route.
	c, err := ua.Bind(netip.Addr{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	send := func() {
		if !c.SendTo(dst, 7000, payload) {
			t.Fatal("no route")
		}
		s.Run(0)
	}
	for i := 0; i < 16; i++ {
		send()
	}
	if n := testing.AllocsPerRun(200, send); n != 0 {
		t.Fatalf("steady-state SendTo allocates %.1f objects per datagram, want 0", n)
	}
	if want := 16 + 201; got != want {
		t.Fatalf("peer received %d datagrams, want %d", got, want)
	}
}
