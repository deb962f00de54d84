package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time" //hgwlint:allowfile detlint the benchmark times the program in host wall time by design; it runs outside the equal-seed contract

	"hgw/internal/obs"
)

// span is one traced interval around a call into a layer. Parent is
// the id of the span that caused it (0 for a root).
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Name    string  `json:"name"`
	StartMS float64 `json:"start_ms"`
	EndMS   float64 `json:"end_ms"`
}

// tracer keeps spans in memory; write saves them when the run ends.
// Spans are taken only at the benchmark's own call sites.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (tr *tracer) now() float64 { return float64(time.Since(tr.t0)) / float64(time.Millisecond) }

// begin opens a span and returns its id. A nil tracer records nothing.
func (tr *tracer) begin(name string, parent int) int {
	if tr == nil {
		return 0
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.spans = append(tr.spans, span{ID: len(tr.spans) + 1, Parent: parent, Name: name, StartMS: tr.now()})
	return len(tr.spans)
}

// end closes span id and returns its duration.
func (tr *tracer) end(id int) time.Duration {
	if tr == nil {
		return 0
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	s := &tr.spans[id-1]
	s.EndMS = tr.now()
	return time.Duration((s.EndMS - s.StartMS) * float64(time.Millisecond))
}

// layerTime is one span name's aggregate: its total duration and its
// self time, the total minus the part its child spans cover.
type layerTime struct {
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

func (tr *tracer) layers() map[string]*layerTime {
	child := make([]float64, len(tr.spans)+1)
	for _, s := range tr.spans {
		if s.Parent > 0 {
			child[s.Parent] += s.EndMS - s.StartMS
		}
	}
	out := map[string]*layerTime{}
	for _, s := range tr.spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{}
			out[s.Name] = lt
		}
		d := s.EndMS - s.StartMS
		lt.Count++
		lt.TotalMS += d
		// Concurrent children can cover more than their parent's
		// interval; self time never goes below zero.
		lt.SelfMS += max(0, d-child[s.ID])
	}
	return out
}

// write saves the configuration, the metrics, the per-layer self
// times and every span under .bench_build/traces.
func (tr *tracer) write(name string, seed int64, cfg map[string]any, m metrics) error {
	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	b, err := json.MarshalIndent(struct {
		Config  map[string]any        `json:"config"`
		Metrics metrics               `json:"metrics"`
		Layers  map[string]*layerTime `json:"layers"`
		Spans   []span                `json:"spans"`
	}{cfg, m, tr.layers(), tr.spans}, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", name, seed))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	fmt.Printf("trace %s\n", path)
	return nil
}

// poolHitRatio is the share of netpkt buffer draws the pool served
// between two process snapshots.
func poolHitRatio(before, after obs.ProcSnapshot) float64 {
	gets := after.PoolGets - before.PoolGets
	if gets == 0 {
		return 0
	}
	return 1 - float64(after.PoolMisses-before.PoolMisses)/float64(gets)
}

// timeOp runs one checked untraced operation and returns its duration.
// Each traced pass times one after its traced part, so neither side is
// the process's first, cold, run of the workload.
func timeOp(t *tally, op func() error) time.Duration {
	start := time.Now()
	t.record(op())
	return time.Since(start)
}

// overheadPct is how much longer the traced pass took than the
// untraced one, in percent of the untraced time.
func overheadPct(traced, untraced time.Duration) float64 {
	return 100 * (float64(traced) - float64(untraced)) / float64(untraced)
}
