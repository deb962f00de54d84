package hgw

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"strings"
	"time"
)

// Option configures a Runner (and thus a Run call).
type Option func(*settings)

// defaultParallelism is a fixed constant, not GOMAXPROCS: parallelism
// is the inventory lane count, and lane assignment decides which
// testbed an experiment observes, so a hardware-dependent default would
// make equal-seed runs render differently across machines. The worker
// count (maxProcs) has no such coupling — units are independent — so
// it defaults to the machine's core count.
const defaultParallelism = 4

// settings is the resolved option set shared by every experiment in a
// run. Experiments with identical settings can share a testbed.
type settings struct {
	tags        []string
	seed        int64
	probeOpts   Options
	parallelism int
	maxProcs    int
	progress    func(Progress)
	fleet       int
	shards      int
	deviceCB    func(DeviceEvent)
	report      bool
	reportCB    func(*RunReport)
	faults      FaultSpec
	memo        *MemoStore
}

func newSettings(opts []Option) settings {
	s := settings{parallelism: defaultParallelism, shards: 1}
	for _, o := range opts {
		o(&s)
	}
	if s.parallelism < 1 {
		s.parallelism = 1
	}
	if s.maxProcs < 1 {
		s.maxProcs = runtime.NumCPU()
	}
	if s.fleet < 0 {
		s.fleet = 0
	}
	if s.shards < 1 {
		s.shards = 1
	}
	if s.fleet > 0 && s.shards > s.fleet {
		s.shards = s.fleet
	}
	return s
}

// CacheKey returns a stable content address for a Run request: the
// SHA-256 (hex) of the canonical form of everything the output is a
// function of — the resolved experiment ids, seed, tags, normalized
// probe options, parallelism, and the fleet/shard parameters. Because
// Run output is a pure function of exactly these inputs, two requests
// with equal keys render byte-identical results, which is what lets a
// service answer repeated requests from cache (see internal/service and
// DESIGN.md §8).
//
// No request keys on WithMaxProcs, the worker count: output is
// identical at any worker count, so the same job submitted from a
// 1-core client and a 64-core client hits the same cache entry. Fleet
// requests (WithFleet > 0) do not key on parallelism either: it is the
// inventory lane count and fleet runs have no lanes.
//
// Canonicalization matches Run's own request handling: ids are
// trimmed, alias-resolved and deduplicated (tcp3 and tcp2 share a key),
// an empty id list resolves to DefaultIDs — or FleetIDs when the
// options request fleet mode — and zero probe-option fields take their
// defaults (a zero Options and an explicit {Iterations: 5} share a
// key). Order stays significant where Run makes it significant: both
// the id list (lane assignment) and the tag list (testbed node order)
// are hashed in request order. Unknown ids return an
// *UnknownExperimentError, like Run.
func CacheKey(ids []string, opts ...Option) (string, error) {
	set := newSettings(opts)
	if len(ids) == 0 {
		if set.fleet > 0 {
			ids = FleetIDs()
		} else {
			ids = DefaultIDs()
		}
	}
	exps, err := resolveIDs(ids)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256([]byte(set.canonical(exps)))
	return hex.EncodeToString(sum[:]), nil
}

// canonical renders the settings and a resolved experiment list in the
// stable textual form CacheKey hashes. Callback options (progress,
// device results) are deliberately absent: they observe a run without
// influencing its output.
func (s settings) canonical(exps []*Experiment) string {
	ids := make([]string, len(exps))
	for i, e := range exps {
		ids[i] = e.ID
	}
	o := s.probeOpts.Normalized()
	var sb strings.Builder
	fmt.Fprintf(&sb, "ids=%s\n", strings.Join(ids, ","))
	fmt.Fprintf(&sb, "seed=%d\n", s.seed)
	fmt.Fprintf(&sb, "tags=%s\n", strings.Join(s.tags, ","))
	fmt.Fprintf(&sb, "opts=iters:%d,res:%d,maxudp:%d,maxtcp:%d,bytes:%d,verdict:%d\n",
		o.Iterations, int64(o.Resolution), int64(o.MaxUDPTimeout),
		int64(o.MaxTCPTimeout), o.TransferBytes, int64(o.Verdict))
	if s.fleet > 0 {
		// Fleet runs have no lanes, so parallelism cannot change their
		// output: hash a wildcard so fleet runs at any parallelism share
		// a cache entry. ("*" cannot collide with the inventory form,
		// which always prints a number.) maxProcs, the worker count, is
		// absent from every hash.
		fmt.Fprintf(&sb, "parallelism=*\nfleet=%d\nshards=%d\n", s.fleet, s.shards)
	} else {
		fmt.Fprintf(&sb, "parallelism=%d\nfleet=%d\nshards=%d\n", s.parallelism, s.fleet, s.shards)
	}
	if o.Retries > 0 {
		// Appended (rather than folded into the opts line) and omitted
		// at the zero default, so pre-existing keys are untouched.
		fmt.Fprintf(&sb, "retries=%d\n", o.Retries)
	}
	if s.faults.Enabled() {
		// Fault plans change the output, so they key — but only when
		// enabled: an absent faults field and an explicit zero FaultSpec
		// hash identically to a pre-fault request. The normalized form
		// is hashed so WithFaultRate(r) and its expanded per-class spec
		// share a key.
		f := s.faults.normalized()
		fmt.Fprintf(&sb, "faults=flap:%g,loss:%g,corrupt:%g,blackhole:%g,reboot:%g,lossp:%g,horizon:%d\n",
			f.Flaps, f.LossWindows, f.Corrupts, f.Blackholes, f.Reboots,
			f.LossP, int64(f.Horizon))
	}
	return sb.String()
}

// WithTags selects the gateways under test by their paper tag
// (default: all 34).
func WithTags(tags ...string) Option {
	return func(s *settings) { s.tags = append([]string(nil), tags...) }
}

// WithSeed seeds the simulations. Output is a pure function of (ids,
// tags, seed, options, parallelism): runs agreeing on all of them
// render byte-identically, on any machine and at any WithMaxProcs.
// Experiments sharing a lane run on a testbed with history, so their
// values can differ slightly from a single-experiment run of the same
// seed.
func WithSeed(seed int64) Option {
	return func(s *settings) { s.seed = seed }
}

// WithIterations sets the number of repeated measurements per device
// (the paper uses 100; the default is 5).
func WithIterations(n int) Option {
	return func(s *settings) { s.probeOpts.Iterations = n }
}

// WithTransferBytes sizes the TCP-2 bulk transfers (paper: 100 MB;
// default 8 MB).
func WithTransferBytes(n int) Option {
	return func(s *settings) { s.probeOpts.TransferBytes = n }
}

// WithOptions replaces the probe options wholesale, for tuning knobs
// without a dedicated Option (search resolution, timeout caps, verdict
// grace period).
func WithOptions(o Options) Option {
	return func(s *settings) { s.probeOpts = o }
}

// WithParallelism sets the inventory lane count: shared-testbed
// experiments are split deterministically across min(n, experiments)
// lanes, each lane building one testbed and running its experiments on
// it in order. It is the inventory partition, as WithShards is the
// fleet partition, and not a concurrency bound (that is WithMaxProcs).
// Parallelism is part of the output — a lane's later experiments
// observe its earlier experiments' testbed history — so CacheKey keys
// on it and it defaults to a fixed 4 rather than the machine's core
// count. Fleet runs have no lanes and ignore it, which is why CacheKey
// drops it for fleet requests.
func WithParallelism(n int) Option {
	return func(s *settings) { s.parallelism = n }
}

// WithMaxProcs sets the worker count for both run modes: at most n
// units — fleet shards, or inventory lanes and Standalone experiments —
// execute at once, and tcp2 measures at most n devices at once
// (default: runtime.NumCPU; values below 1 select the default).
// Unlike WithParallelism and WithShards, maxProcs is a pure
// throughput knob with no reproducibility weight: every unit is an
// independent virtual time domain whose inputs depend only on the
// run's settings and the unit index, and the merge consumes units in
// index order, so a run renders byte-identically at maxProcs 1, 4 or
// 64, and CacheKey ignores it. It also sets the run's memory budget:
// at most maxProcs testbeds (plus a small pipeline window of finished
// units) are resident at once, which is what lets
// WithFleet(1_000_000) run in bounded memory. The one exception is
// tcp2: its unit holds a single worker slot while it measures up to n
// devices, each on its own simulator, so beside other running units
// it can add up to n-1 simulators beyond that bound.
func WithMaxProcs(n int) Option {
	return func(s *settings) { s.maxProcs = n }
}

// WithProgress installs a callback invoked when each experiment starts
// and finishes (and, in fleet runs, as each shard starts and merges;
// see Progress). It may be called from any of the run's worker
// goroutines, but calls are serialized.
func WithProgress(fn func(Progress)) Option {
	return func(s *settings) { s.progress = fn }
}

// WithFleet switches the run to fleet mode: instead of the Table 1
// inventory, experiments measure n synthetic devices sampled from the
// paper's population distributions (deterministically from the run's
// seed), partitioned across WithShards sub-testbeds. Only experiments
// with a population Sweep can run in fleet mode; an empty id list runs
// FleetIDs. WithTags is ignored in fleet mode.
func WithFleet(n int) Option {
	return func(s *settings) { s.fleet = n }
}

// WithShards partitions a fleet across k independent sub-testbeds
// (default 1). Shards build and probe concurrently on up to
// WithMaxProcs workers — each owns a simulator — so bring-up and
// sweeps parallelize across shards instead of serializing every DHCP
// handshake and probe on one topology, and even single-threaded the
// per-shard topologies keep broadcast domains and event queues small.
// The shard count is part of the reproducibility contract: it decides
// the device partition and each shard's simulator seed. (Each shard
// holds at most 4094 devices, so million-device fleets need hundreds
// of shards; shards stream through a bounded window, so memory follows
// maxProcs, not the shard count.)
func WithShards(k int) Option {
	return func(s *settings) { s.shards = k }
}

// WithRunReport requests run telemetry: each fleet shard (or inventory
// lane) gets a per-shard obs registry, and when the run finishes fn
// receives the assembled RunReport (fn may be nil to collect the
// report for Runner.Report only). Telemetry observes a run without
// influencing it — registries are write-only from simulation code
// (obslint) and the report rides outside the result path — so CacheKey
// deliberately ignores this option, like the other callbacks, and
// equal-seed runs render byte-identically with or without it.
func WithRunReport(fn func(*RunReport)) Option {
	return func(s *settings) {
		s.report = true
		s.reportCB = fn
	}
}

// DeviceEvent is delivered to a WithDeviceResults callback once per
// device as fleet shards complete an experiment's sweep.
type DeviceEvent struct {
	// ExperimentID is the registry id of the sweep that produced the
	// result.
	ExperimentID string
	// Shard is the index of the sub-testbed the device ran on.
	Shard int
	// Result carries the device's tag and raw samples.
	Result DeviceResult
}

// WithDeviceResults installs a streaming callback invoked once per
// device during fleet runs, as each shard clears the merge step —
// front-ends can report fleet progress without waiting for the merged
// population figures. The event sequence is deterministic: shards are
// replayed in shard order, experiments in run order within a shard,
// devices in device order within an experiment — identical at any
// WithMaxProcs setting, so the stream itself is reproducible, not just
// the final render. Calls are serialized.
func WithDeviceResults(fn func(DeviceEvent)) Option {
	return func(s *settings) { s.deviceCB = fn }
}

// FaultSpec parameterizes deterministic fault injection (WithFaults):
// seeded chaos plans reproducing the paper's §4.4 quirk surface —
// spontaneous gateway reboots that wipe the NAT binding table and
// re-lease the WAN address over DHCP, link flaps, windows of random
// frame loss or corruption, and transient WAN blackholes. Rates are
// expected event counts per device over the plan horizon; fractional
// rates are resolved by seeded per-device draws. The plan is drawn from
// its own seed-split rng stream (independent of the fleet's profile
// draws), so equal-seed faulted runs render byte-identically at any
// worker count.
type FaultSpec struct {
	// Rate is shorthand: when > 0 and every per-class rate is zero, all
	// five classes run at this rate.
	Rate float64 `json:"rate,omitempty"`

	// Per-class expected events per device over the horizon.
	Flaps       float64 `json:"flaps,omitempty"`
	LossWindows float64 `json:"loss_windows,omitempty"`
	Corrupts    float64 `json:"corrupts,omitempty"`
	Blackholes  float64 `json:"blackholes,omitempty"`
	Reboots     float64 `json:"reboots,omitempty"`

	// LossP is the per-frame drop (and corruption-flip) probability
	// inside a loss or corrupt window (default 0.25).
	LossP float64 `json:"loss_p,omitempty"`

	// Horizon is the sim-time span after testbed bring-up over which
	// event start times are drawn (default 10 minutes).
	Horizon time.Duration `json:"horizon_ns,omitempty"`
}

// Enabled reports whether the spec schedules any faults. A zero
// FaultSpec is disabled and behaves — including for CacheKey — exactly
// like not passing WithFaults at all.
func (f FaultSpec) Enabled() bool {
	return f.Rate > 0 || f.Flaps > 0 || f.LossWindows > 0 ||
		f.Corrupts > 0 || f.Blackholes > 0 || f.Reboots > 0
}

// normalized expands the Rate shorthand and applies defaults, so
// equivalent specs hash and compile identically.
func (f FaultSpec) normalized() FaultSpec {
	if f.Rate > 0 && f.Flaps == 0 && f.LossWindows == 0 &&
		f.Corrupts == 0 && f.Blackholes == 0 && f.Reboots == 0 {
		f.Flaps, f.LossWindows, f.Corrupts, f.Blackholes, f.Reboots =
			f.Rate, f.Rate, f.Rate, f.Rate, f.Rate
	}
	f.Rate = 0
	if f.LossP <= 0 {
		f.LossP = 0.25
	}
	if f.Horizon <= 0 {
		f.Horizon = 10 * time.Minute
	}
	return f
}

// WithFaults installs a fault-injection plan on the run: every fleet
// shard (and inventory lane) compiles a per-shard plan from the spec
// and its seed-split plan seed and executes it against its devices.
// Faults are part of the output contract — CacheKey folds an enabled
// spec in — and of the determinism contract: equal-seed faulted runs
// render byte-identically at any WithMaxProcs setting. A zero spec is
// a no-op.
func WithFaults(f FaultSpec) Option {
	return func(s *settings) { s.faults = f }
}

// WithFaultRate is WithFaults shorthand: every fault class (flap, loss
// window, corrupt window, blackhole, reboot) runs at rate expected
// events per device over the default horizon.
func WithFaultRate(rate float64) Option {
	return WithFaults(FaultSpec{Rate: rate})
}

// WithRetries sets the probe-side retry budget for setup exchanges
// under injected loss (default 0: fail fast, as unfaulted runs do).
func WithRetries(n int) Option {
	return func(s *settings) { s.probeOpts.Retries = n }
}
