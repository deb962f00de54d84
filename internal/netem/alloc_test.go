package netem

import (
	"testing"
	"time"

	"hgw/internal/netpkt"
	"hgw/internal/sim"
)

// TestAllocsLinkHop pins a steady-state queued link hop at zero
// allocations: a burst of frames arrives while the link is busy, so all
// but the first wait in the transmit queue, then each serializes,
// propagates and is delivered through the pipe's two FIFOs.
func TestAllocsLinkHop(t *testing.T) {
	s := sim.New(1)
	a, b := mkIface("a"), mkIface("b")
	delivered := 0
	b.Recv = func(*netpkt.Frame) { delivered++ }
	l := Connect(s, a, b, LinkConfig{Rate: 100e6, Delay: 10 * time.Microsecond})
	burst := make([]*netpkt.Frame, 4)
	for i := range burst {
		burst[i] = &netpkt.Frame{Src: a.MAC, Dst: b.MAC, Type: netpkt.EtherTypeIPv4, Payload: make([]byte, 982)}
	}
	hop := func() {
		for _, f := range burst {
			a.Send(f)
		}
		s.Run(0)
	}
	for i := 0; i < 8; i++ {
		hop() // grow the FIFOs and the event heap to their steady size
	}
	if n := testing.AllocsPerRun(200, hop); n != 0 {
		t.Fatalf("queued link hop allocates %.1f objects per burst, want 0", n)
	}
	if want := (8 + 201) * len(burst); delivered != want {
		t.Fatalf("delivered %d frames, want %d", delivered, want)
	}
	if ab, _ := l.Drops(); ab != 0 {
		t.Fatalf("%d frames dropped; the burst must fit the queue", ab)
	}
}
