package hgw

import (
	"context"
	"sync/atomic"
	"testing"
)

// TestThroughputOneWorker checks that tcp2's per-device fan-out obeys
// WithMaxProcs: at one worker no two device measurements overlap, and
// at two workers no more than two do.
func TestThroughputOneWorker(t *testing.T) {
	measure := measureDevice
	t.Cleanup(func() { measureDevice = measure })
	var running, peak atomic.Int64
	measureDevice = func(tag string, opts Options, seed int64, interrupt func() bool) Throughput {
		n := running.Add(1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		defer running.Add(-1)
		return measure(tag, opts, seed, interrupt)
	}
	tags := []string{"je", "ls1", "owrt", "dl10"}
	for _, procs := range []int{1, 2} {
		peak.Store(0)
		_, err := Run(context.Background(), []string{"tcp2"}, WithSeed(5), WithTags(tags...),
			WithTransferBytes(64<<10), WithMaxProcs(procs))
		if err != nil {
			t.Fatal(err)
		}
		if got := peak.Load(); got < 1 || got > int64(procs) {
			t.Errorf("WithMaxProcs(%d): %d device measurements overlapped", procs, got)
		}
	}
}
