package stack

import (
	"fmt"
	"math/rand"
	"net/netip"
	"testing"

	"hgw/internal/netpkt"
	"hgw/internal/sim"
)

// linearLookup is the reference routing decision: a scan of the whole
// table for the longest prefix containing dst, the latest added winning
// among equal lengths.
func linearLookup(h *Host, dst netip.Addr) (Route, bool) {
	best := -1
	var found Route
	for _, r := range h.routes {
		if r.Prefix.Contains(dst) && r.Prefix.Bits() >= best {
			best = r.Prefix.Bits()
			found = r
		}
	}
	return found, best >= 0
}

// linearIsLocal is the reference local-address check: a scan of every
// interface.
func linearIsLocal(h *Host, addr netip.Addr) bool {
	if addr == netip.AddrFrom4([4]byte{255, 255, 255, 255}) {
		return true
	}
	for _, n := range h.ifaces {
		if n.Addr == addr {
			return true
		}
	}
	return false
}

// checkAgainstLinear compares Lookup and IsLocal with the reference
// scans for every address in dsts.
func checkAgainstLinear(t *testing.T, h *Host, step string, dsts []netip.Addr) {
	t.Helper()
	for _, d := range dsts {
		got, gok := h.Lookup(d)
		want, wok := linearLookup(h, d)
		if got != want || gok != wok {
			t.Fatalf("%s: Lookup(%v) = %v %v, linear scan %v %v", step, d, got, gok, want, wok)
		}
		if got, want := h.IsLocal(d), linearIsLocal(h, d); got != want {
			t.Fatalf("%s: IsLocal(%v) = %v, linear scan %v", step, d, got, want)
		}
	}
}

func TestRouteIndexCases(t *testing.T) {
	h := NewHost(sim.New(1), "h")
	a := h.AddIf("a", netpkt.Addr4(10, 0, 0, 1), 24)
	b := h.AddIf("b", netpkt.Addr4(10, 0, 1, 1), 24)
	c := h.AddIf("c", netip.Addr{}, 0)
	probe := []netip.Addr{
		netpkt.Addr4(10, 0, 0, 7), netpkt.Addr4(10, 0, 1, 7), netpkt.Addr4(10, 0, 1, 1),
		netpkt.Addr4(8, 8, 8, 8), netpkt.Addr4(0, 0, 0, 0), netpkt.Addr4(255, 255, 255, 255),
		netip.Addr{},
	}
	expect := func(step string, dst netip.Addr, want *NetIf, nh netip.Addr) {
		t.Helper()
		checkAgainstLinear(t, h, step, probe)
		r, ok := h.Lookup(dst)
		if want == nil {
			if ok {
				t.Fatalf("%s: Lookup(%v) = %v, want no route", step, dst, r)
			}
			return
		}
		if !ok || r.If != want || r.NextHop != nh {
			t.Fatalf("%s: Lookup(%v) = %v %v, want via %s next hop %v", step, dst, r, ok, want.Name(), nh)
		}
	}
	gw := netpkt.Addr4(10, 0, 0, 254)
	expect("no default", netpkt.Addr4(8, 8, 8, 8), nil, netip.Addr{})
	expect("connected", netpkt.Addr4(10, 0, 1, 7), b, netip.Addr{})

	h.AddRoute(parsePrefix(t, "0.0.0.0/0"), gw, a)
	expect("/0 default", netpkt.Addr4(8, 8, 8, 8), a, gw)
	expect("/0 matches 0.0.0.0", netpkt.Addr4(0, 0, 0, 0), a, gw)
	expect("/24 beats /0", netpkt.Addr4(10, 0, 1, 7), b, netip.Addr{})

	h.AddRoute(parsePrefix(t, "10.0.1.7/32"), netip.Addr{}, c)
	expect("/32 host route", netpkt.Addr4(10, 0, 1, 7), c, netip.Addr{})
	expect("/32 matches one address", netpkt.Addr4(10, 0, 1, 8), b, netip.Addr{})

	// The same /24 again, unmasked, via another interface: the latest
	// route for a prefix wins.
	h.AddRoute(netip.PrefixFrom(netpkt.Addr4(10, 0, 1, 99), 24), netip.Addr{}, c)
	expect("duplicate prefix, latest wins", netpkt.Addr4(10, 0, 1, 8), c, netip.Addr{})

	// Removing the later duplicate uncovers the earlier route it
	// replaced; the /32 via c goes with it.
	h.RemoveRoutesVia(c)
	expect("removal uncovers earlier route", netpkt.Addr4(10, 0, 1, 8), b, netip.Addr{})
	expect("removed /32", netpkt.Addr4(10, 0, 1, 7), b, netip.Addr{})

	// Invalid and non-IPv4 prefixes never match: the table routes IPv4
	// only, where the linear scan would also route IPv6.
	h.AddRoute(netip.Prefix{}, netip.Addr{}, c)
	h.AddRoute(netip.MustParsePrefix("::/0"), netip.Addr{}, c)
	expect("invalid prefix ignored", netpkt.Addr4(10, 0, 1, 8), b, netip.Addr{})
	expect("IPv6 prefix ignored", netip.MustParseAddr("::1"), nil, netip.Addr{})
	expect("invalid destination", netip.Addr{}, nil, netip.Addr{})

	// A zero interface address installs an invalid connected prefix;
	// re-addressing moves IsLocal.
	c.SetAddr(netip.Addr{}, 24)
	b.SetAddr(netpkt.Addr4(10, 0, 2, 1), 24)
	expect("re-addressed", netpkt.Addr4(10, 0, 2, 9), b, netip.Addr{})
	if h.IsLocal(netpkt.Addr4(10, 0, 1, 1)) || !h.IsLocal(netpkt.Addr4(10, 0, 2, 1)) {
		t.Fatal("IsLocal did not follow SetAddr")
	}
	h.RemoveRoutesVia(a)
	expect("default removed", netpkt.Addr4(8, 8, 8, 8), nil, netip.Addr{})
}

// TestRouteIndexMatchesLinearScan drives random sequences of AddIf,
// SetAddr, AddRoute and RemoveRoutesVia and checks Lookup and IsLocal
// against the reference scans after every step. Addresses come from a
// small pool so prefixes collide, nest and repeat.
func TestRouteIndexMatchesLinearScan(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		addr := func() netip.Addr {
			switch rng.Intn(12) {
			case 0:
				return netip.Addr{}
			case 1:
				return netip.AddrFrom4([4]byte{byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))})
			}
			return netpkt.Addr4(10, byte(rng.Intn(3)), byte(rng.Intn(4)), byte(rng.Intn(8)))
		}
		plen := func() int {
			lens := []int{0, 8, 16, 22, 24, 24, 24, 30, 32, 32}
			if rng.Intn(4) == 0 {
				return rng.Intn(33)
			}
			return lens[rng.Intn(len(lens))]
		}
		prefix := func() netip.Prefix {
			switch rng.Intn(16) {
			case 0:
				return netip.Prefix{}
			case 1:
				return netip.MustParsePrefix("fe80::/64")
			}
			return netip.PrefixFrom(addr(), plen())
		}
		h := NewHost(sim.New(seed), "h")
		h.AddIf("eth0", netpkt.Addr4(10, 0, 0, 1), 24)
		for step := 0; step < 200; step++ {
			ifc := h.ifaces[rng.Intn(len(h.ifaces))]
			var what string
			switch op := rng.Intn(10); {
			case op < 2:
				what = "AddIf"
				h.AddIf(fmt.Sprintf("if%d", step), addr(), plen())
			case op < 4:
				what = "SetAddr"
				ifc.SetAddr(addr(), plen())
			case op < 9:
				what = "AddRoute"
				nh := netip.Addr{}
				if rng.Intn(2) == 0 {
					nh = addr()
				}
				h.AddRoute(prefix(), nh, ifc)
			default:
				what = "RemoveRoutesVia"
				h.RemoveRoutesVia(ifc)
			}
			dsts := make([]netip.Addr, 0, 48+len(h.ifaces))
			for i := 0; i < 48; i++ {
				dsts = append(dsts, addr())
			}
			for _, n := range h.ifaces {
				dsts = append(dsts, n.Addr)
			}
			checkAgainstLinear(t, h, fmt.Sprintf("seed %d step %d (%s)", seed, step, what), dsts)
		}
	}
}

// connectedHost returns a host with one connected /24 per interface,
// as the fleet server has one per device VLAN, and one destination on
// each of them.
func connectedHost(routes int) (*Host, []netip.Addr) {
	h := NewHost(sim.New(1), "server")
	dsts := make([]netip.Addr, routes)
	for i := range dsts {
		h.AddIf(fmt.Sprintf("v%d", i), netpkt.Addr4(10, byte(i>>8), byte(i), 1), 24)
		dsts[i] = netpkt.Addr4(10, byte(i>>8), byte(i), 100)
	}
	return h, dsts
}

// TestAllocsLookup pins route lookup at zero allocations.
func TestAllocsLookup(t *testing.T) {
	for _, routes := range []int{2, 256} {
		h, dsts := connectedHost(routes)
		i := 0
		n := testing.AllocsPerRun(1000, func() {
			if _, ok := h.Lookup(dsts[i%routes]); !ok {
				t.Fatalf("no route to %v", dsts[i%routes])
			}
			i++
		})
		if n != 0 {
			t.Fatalf("Lookup with %d routes allocates %.1f objects per call, want 0", routes, n)
		}
	}
}

func BenchmarkLookup(b *testing.B) {
	for _, routes := range []int{2, 256} {
		b.Run(fmt.Sprintf("r%d", routes), func(b *testing.B) {
			h, dsts := connectedHost(routes)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, ok := h.Lookup(dsts[i%routes]); !ok {
					b.Fatalf("no route to %v", dsts[i%routes])
				}
			}
		})
	}
}
