package tcp

import (
	"bytes"
	"testing"
	"time"

	"hgw/internal/netem"
	"hgw/internal/netpkt"
	"hgw/internal/sim"
)

// steadyConn is an established connection between two directly linked
// hosts. A writer process sends payload once per tick; a reader
// process drains the server side with ReadAppend into one reused
// buffer and counts the bytes.
type steadyConn struct {
	s        *sim.Sim
	srvStack *Stack
	cli, srv *Conn
	tick     *sim.Chan[struct{}]
	rcvd     int
}

func newSteadyConn(t *testing.T, payload []byte) *steadyConn {
	t.Helper()
	s := sim.New(1)
	_, _, ta, tb := pair(s, netem.LinkConfig{})
	lis, err := tb.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	sc := &steadyConn{s: s, srvStack: tb, tick: sim.NewChan[struct{}](s)}
	s.Spawn("server", func(p *sim.Proc) {
		c, err := lis.Accept(p, 10*time.Second)
		if err != nil {
			return
		}
		sc.srv = c
		buf := make([]byte, 0, 1<<16)
		for {
			if buf, err = c.ReadAppend(p, buf[:0], 1<<16, 0); err != nil {
				return
			}
			sc.rcvd += len(buf)
		}
	})
	s.Spawn("client", func(p *sim.Proc) {
		c, err := ta.Connect(p, netpkt.Addr4(10, 0, 0, 2), 80, 0, 10*time.Second)
		if err != nil {
			return
		}
		sc.cli = c
		for {
			if _, ok := sc.tick.Recv(p, 0); !ok {
				return
			}
			if c.Write(p, payload) != nil {
				return
			}
		}
	})
	s.Run(0)
	if sc.cli == nil || sc.srv == nil {
		t.Fatal("connection not established")
	}
	t.Cleanup(s.Shutdown)
	return sc
}

// TestAllocsSteadyStateSegment pins the TCP data path at zero
// allocations: one full-size data segment written, marshaled, carried
// across the link, parsed, queued, read and ACKed back — between two
// stack.Hosts — allocates nothing once the queues and pools are warm.
func TestAllocsSteadyStateSegment(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items; allocation pins do not apply")
	}
	payload := bytes.Repeat([]byte{0x5a}, MSS)
	sc := newSteadyConn(t, payload)
	segment := func() {
		sc.tick.Send(struct{}{})
		sc.s.Run(0)
	}
	for i := 0; i < 16; i++ {
		segment()
	}
	if n := testing.AllocsPerRun(200, segment); n != 0 {
		t.Fatalf("steady-state data segment allocates %.1f objects per run, want 0", n)
	}
	if want := (16 + 201) * MSS; sc.rcvd != want {
		t.Fatalf("received %d bytes, want %d", sc.rcvd, want)
	}
	if fl := sc.cli.flight(); fl != 0 {
		t.Fatalf("%d bytes still unacknowledged", fl)
	}
}

// TestAllocsReceivePath pins the receive path — input (parse into the
// stack's scratch segment) → processData (copy into the receive queue)
// → ReadAppend (copy out into the reader's buffer) — at zero
// allocations, with the inbound packet released to the pools at the
// end of input.
func TestAllocsReceivePath(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items; allocation pins do not apply")
	}
	sc := newSteadyConn(t, nil)
	ifc := sc.srvStack.h.Ifaces()[0]
	local, lport := sc.srv.Local()
	remote, rport := sc.srv.Remote()
	payload := bytes.Repeat([]byte{0xa5}, MSS)
	var segWire []byte
	deliver := func() {
		seg := netpkt.TCP{
			SrcPort: rport, DstPort: lport,
			Seq: sc.srv.rcvNxt, Ack: sc.srv.sndNxt,
			Flags: netpkt.TCPAck | netpkt.TCPPsh, Window: recvWndMax,
			Payload: payload,
		}
		segWire = seg.AppendMarshal(segWire[:0], remote, local)
		out := netpkt.IPv4{TTL: 64, Protocol: netpkt.ProtoTCP, Src: remote, Dst: local, Payload: segWire}
		ip, err := netpkt.ParseIPv4(out.MarshalPooled())
		if err != nil {
			t.Fatal(err)
		}
		sc.srvStack.input(ifc, ip)
		sc.s.Run(0)
	}
	for i := 0; i < 16; i++ {
		deliver()
	}
	if n := testing.AllocsPerRun(200, deliver); n != 0 {
		t.Fatalf("TCP receive path allocates %.1f objects per run, want 0", n)
	}
	if want := (16 + 201) * MSS; sc.rcvd != want {
		t.Fatalf("received %d bytes, want %d", sc.rcvd, want)
	}
}
