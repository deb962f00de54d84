package obs

import "time"

// TraceKind labels one class of trace event.
type TraceKind uint8

// The trace-kind registry. Arg's meaning is per kind.
const (
	// TraceShardStart marks the shard worker beginning its build
	// (at = 0, arg = shard index).
	TraceShardStart TraceKind = iota
	// TraceShardMerge marks the merger consuming the shard
	// (at = final sim time, arg = shard index).
	TraceShardMerge
	// TraceBindingCreate / TraceBindingExpire bracket a NAT binding's
	// life (arg = external port).
	TraceBindingCreate
	TraceBindingExpire
	// TraceDrop records a refused packet (arg = DropReason registry
	// index).
	TraceDrop
	// NumTraceKinds bounds the registry; it is not a kind.
	NumTraceKinds
)

var traceKindNames = [NumTraceKinds]string{
	TraceShardStart:    "shard_start",
	TraceShardMerge:    "shard_merge",
	TraceBindingCreate: "binding_create",
	TraceBindingExpire: "binding_expire",
	TraceDrop:          "drop",
}

// Name returns the kind's stable identifier.
func (k TraceKind) Name() string {
	if k >= NumTraceKinds {
		return "unknown"
	}
	return traceKindNames[k]
}

// traceStride is the per-kind deterministic sampling stride: event
// seen-counts (not randomness, not time) decide which events land in
// the ring, so equal-seed shards sample identically. Lifecycle markers
// keep every event; high-volume kinds keep one in 64.
var traceStride = [NumTraceKinds]uint32{
	TraceShardStart:    1,
	TraceShardMerge:    1,
	TraceBindingCreate: 64,
	TraceBindingExpire: 64,
	TraceDrop:          64,
}

// TraceCap is the ring's capacity: it retains the most recent TraceCap
// sampled events.
const TraceCap = 128

// TraceEvent is one sampled, sim-time-stamped event.
type TraceEvent struct {
	At   time.Duration `json:"at_ns"`
	Kind TraceKind     `json:"kind"`
	Arg  uint32        `json:"arg"`
}

// KindName returns the event kind's stable identifier (convenience for
// renderers).
func (e TraceEvent) KindName() string { return e.Kind.Name() }

// traceRing is the fixed-capacity sampled event ring.
type traceRing struct {
	buf  [TraceCap]TraceEvent
	n    uint64                // total events recorded (post-sampling)
	seen [NumTraceKinds]uint32 // per-kind pre-sampling counts
}

// Trace records one event, subject to the kind's sampling stride.
// Allocation-free and nil-safe like every Registry write.
func (r *Registry) Trace(k TraceKind, at time.Duration, arg uint32) {
	if r == nil {
		return
	}
	t := &r.trace
	t.seen[k]++
	if (t.seen[k]-1)%traceStride[k] != 0 {
		return
	}
	t.buf[t.n%TraceCap] = TraceEvent{At: at, Kind: k, Arg: arg}
	t.n++
}

// events unrolls the ring oldest-first.
func (t *traceRing) events() []TraceEvent {
	if t.n == 0 {
		return nil
	}
	n := t.n
	if n > TraceCap {
		out := make([]TraceEvent, TraceCap)
		start := n % TraceCap
		copy(out, t.buf[start:])
		copy(out[TraceCap-start:], t.buf[:start])
		return out
	}
	return append([]TraceEvent(nil), t.buf[:n]...)
}
