package hgw_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"

	"hgw"
	"hgw/internal/netpkt"
)

// poisonByte fills every packet buffer returned to the pool while
// TestPoisonedBuffersRenderIdentically runs.
const poisonByte = 0xdb

// TestPoisonedBuffersRenderIdentically is the use-after-release check
// for packet-buffer recycling (DESIGN.md §9): with every buffer handed
// to netpkt.PutBuf overwritten on its way into the pool, a view that
// outlives its release reads poison instead of a stale copy of the
// right bytes. The behavior goldens (which include the TCP experiments
// on all Table 1 devices) must still render byte-identically at
// maxProcs 1, 2 and NumCPU, and so must the faulted determinism matrix,
// whose loss, corruption and reboot paths drop packets mid-flight.
func TestPoisonedBuffersRenderIdentically(t *testing.T) {
	faultedIDs := []string{"udp3"}
	faulted := func(procs int) []hgw.Option {
		return []hgw.Option{
			hgw.WithSeed(11), hgw.WithFleet(96), hgw.WithShards(4),
			hgw.WithIterations(1), hgw.WithMaxProcs(procs),
			hgw.WithFaultRate(1), hgw.WithRetries(2),
		}
	}
	// The faulted baseline renders before the hook is set.
	faultedRender, faultedTrace := fleetTrace(t, faultedIDs, faulted(1)...)

	var poisoned atomic.Int64
	netpkt.DebugPutBuf = func(b []byte) {
		poisoned.Add(1)
		for i := range b {
			b[i] = poisonByte
		}
	}
	t.Cleanup(func() { netpkt.DebugPutBuf = nil })

	for _, procs := range []int{1, 2, runtime.NumCPU()} {
		for _, g := range goldenRuns {
			t.Run(fmt.Sprintf("%s/maxprocs=%d", g.name, procs), func(t *testing.T) {
				opts := append(append([]hgw.Option(nil), g.opts...), hgw.WithMaxProcs(procs))
				results, err := hgw.Run(context.Background(), g.ids, opts...)
				if err != nil {
					t.Fatal(err)
				}
				want, err := os.ReadFile(filepath.Join("testdata", "behavior", g.name+".golden"))
				if err != nil {
					t.Fatal(err)
				}
				if got := results.Render(); got != string(want) {
					t.Errorf("poisoned render differs from golden %s\n--- got ---\n%s\n--- want ---\n%s", g.name, got, want)
				}
			})
		}
		t.Run(fmt.Sprintf("faulted/maxprocs=%d", procs), func(t *testing.T) {
			render, trace := fleetTrace(t, faultedIDs, faulted(procs)...)
			if render != faultedRender {
				t.Errorf("poisoned faulted render differs from the unpoisoned one\n--- got ---\n%s\n--- want ---\n%s", render, faultedRender)
			}
			if trace != faultedTrace {
				t.Error("poisoned faulted device-event stream differs from the unpoisoned one")
			}
		})
	}
	netpkt.DebugPutBuf = nil
	if poisoned.Load() == 0 {
		t.Fatal("no buffer was recycled through PutBuf; the hook saw nothing")
	}
}
