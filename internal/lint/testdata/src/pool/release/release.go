// Package release holds poollint's (*netpkt.IPv4).Release cases: uses
// of a released packet or of a view parsed from it are flagged; a
// release after the last use, on a path that returns, or deferred is
// legal.
package release

import "netpkt"

func sink([]byte) {}

func UseAfterRelease(ip *netpkt.IPv4) int {
	ip.Release()
	return len(ip.Payload) // want `packet "ip" used after its Release`
}

func ParsedViewAfterRelease(ip *netpkt.IPv4) int {
	u, _ := netpkt.ParseUDP(ip.Payload)
	ip.Release()
	return len(u.Raw) // want `zero-copy view "u" of packet "ip" used after`
}

func ScratchViewAfterRelease(ip *netpkt.IPv4) int {
	var seg netpkt.UDP
	seg.Parse(ip.Payload)
	ip.Release()
	return len(seg.Raw) // want `zero-copy view "seg" of packet "ip" used after`
}

func SliceAfterConditionalRelease(ip *netpkt.IPv4, drop bool) byte {
	p := ip.Payload[4:]
	if drop {
		ip.Release()
	}
	return p[0] // want `zero-copy view "p" of packet "ip" used after`
}

func NextIteration(ip *netpkt.IPv4, n int) {
	for i := 0; i < n; i++ {
		sink(ip.Payload) // want `packet "ip" used after its Release`
		ip.Release()
	}
}

func ReleaseLast(ip *netpkt.IPv4) int {
	u, _ := netpkt.ParseUDP(ip.Payload)
	n := len(u.Raw)
	ip.Release()
	return n
}

func ReleaseOnDropPath(ip *netpkt.IPv4, ok bool) int {
	if !ok {
		ip.Release()
		return 0
	}
	n := len(ip.Payload)
	ip.Release()
	return n
}

func DeferredRelease(ip *netpkt.IPv4) int {
	defer ip.Release()
	return len(ip.Payload)
}

func FreshEachIteration(next func() *netpkt.IPv4) {
	for i := 0; i < 3; i++ {
		ip := next()
		sink(ip.Payload)
		ip.Release()
	}
}

func Reassigned(ip *netpkt.IPv4, next func() *netpkt.IPv4) int {
	ip.Release()
	ip = next()
	return len(ip.Payload)
}
