package hgw

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"hgw/internal/fault"
	"hgw/internal/gateway"
	"hgw/internal/obs"
	"hgw/internal/report"
	"hgw/internal/stats"
	"hgw/internal/testbed"
)

// ProgressKind distinguishes the event classes a WithProgress callback
// receives. The zero value is ProgressExperiment, so callbacks written
// before shard events existed keep working unchanged.
type ProgressKind int

const (
	// ProgressExperiment marks experiment start/finish events (the
	// default kind; ID, Index and Total describe the experiment list).
	ProgressExperiment ProgressKind = iota
	// ProgressShard marks fleet shard start/merge events: Shard is the
	// shard index, Index/Total count shards, and ID is empty. Shard
	// start events arrive in worker-scheduling order; shard Done
	// events arrive strictly in shard index order (the merge order).
	// Inventory runs never emit shard events: their lanes and
	// Standalone experiments run on the same worker pool, but only
	// their experiment events are reported.
	ProgressShard
)

// Progress is the event delivered to a WithProgress callback when an
// experiment starts (Done false) and finishes (Done true). Every
// experiment in a run emits exactly one Done event; the preceding
// start event is omitted for experiments that never began executing
// (context cancelled, or their lane's testbed failed to build). In an
// inventory run, an experiment's start and Done events bracket its
// execution on one of the WithMaxProcs workers, so at most maxProcs
// experiments are between start and Done at any moment. Fleet runs
// report every experiment as started up front and done after the
// merge, and additionally emit ProgressShard events bracketing each
// shard's build/sweep and merge.
type Progress struct {
	// Kind is the event class (experiment by default).
	Kind ProgressKind
	// ID is the experiment's registry id (empty for shard events).
	ID string
	// Index is the experiment's position in the deduplicated id list,
	// or the shard index for shard events.
	Index int
	// Total is the number of experiments in the run, or the shard
	// count for shard events.
	Total int
	// Shard is the shard index for shard events (0 otherwise).
	Shard int
	// Done marks completion; Err carries the failure, if any.
	Done bool
	Err  error
}

// ExperimentError attributes a run failure to a single experiment. It
// unwraps to the underlying cause, so errors.Is sees sentinel errors
// (context.Canceled, ErrNotFleetCapable) through it.
type ExperimentError struct {
	// ID is the registry id of the experiment that failed.
	ID  string
	Err error
}

func (e *ExperimentError) Error() string { return fmt.Sprintf("experiment %s: %v", e.ID, e.Err) }

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *ExperimentError) Unwrap() error { return e.Err }

// ShardError attributes a fleet failure to one shard. A faulted shard
// that panics mid-sweep is recovered into a ShardError instead of
// poisoning the Runner: the error names the shard and the experiment
// that was executing, carries the population points of the experiments
// the shard did complete (Partial), and unwraps to the recovered panic.
// Shards are ephemeral to their Run, so the Runner stays reusable.
type ShardError struct {
	// Shard is the index of the shard that failed.
	Shard int
	// ExperimentID is the registry id of the experiment executing when
	// the shard failed (empty when the failure preceded the sweeps).
	ExperimentID string
	// Partial holds the per-device population points of the experiments
	// this shard completed before failing, in experiment-then-device
	// order. The merged run discards them — a partial fleet figure
	// would violate the determinism contract — but diagnostics and
	// callers recovering via errors.As can inspect them.
	Partial []DevicePoint
	// Err is the underlying cause (the recovered panic).
	Err error
}

func (e *ShardError) Error() string {
	if e.ExperimentID != "" {
		return fmt.Sprintf("shard %d: experiment %s: %v", e.Shard, e.ExperimentID, e.Err)
	}
	return fmt.Sprintf("shard %d: %v", e.Shard, e.Err)
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *ShardError) Unwrap() error { return e.Err }

// RunError is the error Run returns when experiments fail: it carries
// every failed experiment, not just the first one a lane encountered,
// so callers can tell exactly which subset of a multi-experiment run
// needs re-running. Failures preserve requested-id order.
type RunError struct {
	Failures []*ExperimentError
}

func (e *RunError) Error() string {
	if len(e.Failures) == 1 {
		return e.Failures[0].Error()
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d experiments failed:", len(e.Failures))
	for _, f := range e.Failures {
		fmt.Fprintf(&sb, "\n\t%s", f.Error())
	}
	return sb.String()
}

// IDs returns the failed experiment ids in requested order.
func (e *RunError) IDs() []string {
	out := make([]string, len(e.Failures))
	for i, f := range e.Failures {
		out[i] = f.ID
	}
	return out
}

// Unwrap exposes each failure to errors.Is/As traversal.
func (e *RunError) Unwrap() []error {
	out := make([]error, len(e.Failures))
	for i, f := range e.Failures {
		out[i] = f
	}
	return out
}

// runError folds per-experiment failures into a *RunError (nil when
// none failed). exps and errs are parallel slices.
func runError(exps []*Experiment, errs []error) error {
	var failures []*ExperimentError
	for i, err := range errs {
		if err != nil {
			failures = append(failures, &ExperimentError{ID: exps[i].ID, Err: err})
		}
	}
	if len(failures) == 0 {
		return nil
	}
	return &RunError{Failures: failures}
}

// Runner schedules registry experiments as sealed units on one worker
// pipeline (runUnits), whichever mode the run is in. Two knobs shape a
// run, and they do different jobs:
//
//   - The partition decides which units exist, so it is part of the
//     output and of CacheKey. An inventory run has one unit per lane —
//     shared-testbed experiments split deterministically across
//     min(WithParallelism, experiments) lanes, each lane building one
//     Figure 1 testbed and running its experiments on it in order —
//     plus one unit per Standalone experiment. A fleet run (WithFleet)
//     has one unit per WithShards shard.
//   - WithMaxProcs is the worker count: at most maxProcs units execute
//     at once, in either mode. Units share nothing and merge in unit
//     order, so it moves only wall clock and memory, never output.
//
// Units are ephemeral — each builds, runs and releases its testbed
// within one Run, and nothing carries over between runs — so a Runner
// stays reusable even after a cancelled or failed run.
type Runner struct {
	set settings

	mu            sync.Mutex
	testbedsBuilt int
	report        *RunReport
}

// NewRunner builds a Runner from options. A Runner is safe for
// sequential reuse; TestbedsBuilt accumulates across its runs.
func NewRunner(opts ...Option) *Runner {
	return &Runner{set: newSettings(opts)}
}

// TestbedsBuilt reports how many Figure 1 testbeds this Runner has
// constructed so far.
func (r *Runner) TestbedsBuilt() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.testbedsBuilt
}

// Report returns the telemetry report of this Runner's most recent
// completed Run, or nil when WithRunReport was not requested (or no
// run has finished yet).
func (r *Runner) Report() *RunReport {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.report
}

// finishReport stamps a completed run's wall clock and process
// diagnostics on its report, stores it and delivers it to the
// WithRunReport callback.
func (r *Runner) finishReport(rep *RunReport, runStart time.Time) {
	rep.WallMS = float64(obs.Since(runStart)) / 1e6
	rep.Process = processStats()
	r.mu.Lock()
	r.report = rep
	r.mu.Unlock()
	if r.set.reportCB != nil {
		r.set.reportCB(rep)
	}
}

// Run executes the experiments registered under ids (nil or empty runs
// DefaultIDs) and returns their results in id order. Unknown ids fail
// up front with an *UnknownExperimentError; duplicate and alias ids are
// deduplicated. When experiments fail, Run returns a *RunError listing
// every failed experiment id alongside the results that did complete.
// Run honors ctx: between experiments cancellation skips the remainder,
// and a cancelled in-flight probe is interrupted mid-simulation, so Run
// returns promptly with the context error attributed to the interrupted
// experiments.
func Run(ctx context.Context, ids []string, opts ...Option) (Results, error) {
	return NewRunner(opts...).Run(ctx, ids)
}

// Run implements the package-level Run on this Runner's settings.
func (r *Runner) Run(ctx context.Context, ids []string) (Results, error) {
	if r.set.fleet > 0 {
		return r.runFleet(ctx, ids)
	}
	if len(ids) == 0 {
		ids = DefaultIDs()
	}
	exps, err := resolveIDs(ids)
	if err != nil {
		return nil, err
	}

	total := len(exps)
	slots := make([]*Result, total)
	errs := make([]error, total)
	// done records experiment i's outcome and emits its one Done event.
	done := func(i int, err error) {
		errs[i] = err
		r.emit(Progress{ID: exps[i].ID, Index: i, Total: total, Done: true, Err: err})
	}

	// Units 0..lanes-1 are the shared-testbed lanes: lane l runs
	// sharedIdx[l], sharedIdx[l+lanes], ... in order on one testbed.
	// Each Standalone experiment follows as a unit of its own. The
	// assignment depends only on the id list and the parallelism.
	var sharedIdx, soloIdx []int
	for i, e := range exps {
		if e.Standalone {
			soloIdx = append(soloIdx, i)
		} else {
			sharedIdx = append(sharedIdx, i)
		}
	}
	lanes := min(r.set.parallelism, len(sharedIdx))
	units := make([][]int, lanes, lanes+len(soloIdx))
	for j, i := range sharedIdx {
		units[j%lanes] = append(units[j%lanes], i)
	}
	for _, i := range soloIdx {
		units = append(units, []int{i})
	}

	runOne := func(i int, env *Env) {
		defer func() {
			if p := recover(); p != nil {
				done(i, fmt.Errorf("panic: %v", p))
			}
		}()
		r.emit(Progress{ID: exps[i].ID, Index: i, Total: total})
		res, err := exps[i].Run(ctx, env)
		if err == nil {
			// A cancelled context may have interrupted the probe
			// mid-simulation; the (possibly partial) result is unusable.
			if cerr := ctx.Err(); cerr != nil {
				res, err = nil, cerr
			}
		}
		slots[i] = res
		done(i, err)
	}

	// runUnit holds one worker slot for the unit's whole life, so at
	// most maxProcs testbeds are alive at once.
	tel := make([]unitTelemetry, len(units))
	runUnit := func(u int, w workerSlots) {
		w.acquire()
		defer w.release()
		shared := u < lanes
		var tb *Testbed
		var s *Sim
		var buildErr error
		if shared {
			// Standalone experiments build private testbeds out of the
			// Runner's sight: only lanes get a report section.
			r.beginUnit(&tel[u], u, 0)
		}
		// Drop the lane's testbed with its process goroutines unwound;
		// parked servers would otherwise outlive the Run.
		defer func() {
			if s != nil {
				s.Shutdown()
			}
			tel[u].finish(s)
		}()
		for _, i := range units[u] {
			err := ctx.Err()
			if err == nil {
				// A failed build poisons the whole lane: the same
				// (tags, seed) would fail identically, so don't
				// rebuild per experiment.
				err = buildErr
			}
			if err == nil && shared && tb == nil {
				if tb, s, buildErr = r.newTestbed(tel[u].reg); buildErr != nil {
					err = buildErr
				} else {
					// This unit owns the simulator: poll ctx between
					// events so cancellation interrupts a probe mid-run
					// instead of waiting out the experiment.
					s.SetInterrupt(func() bool { return ctx.Err() != nil })
					// Chaos: lanes seed-split fault plans by lane index,
					// like fleet shards do by shard index.
					r.installFaults(s, tb, u)
				}
			}
			if err != nil {
				done(i, err)
				continue
			}
			runOne(i, &Env{Tags: r.set.tags, Seed: r.set.seed, Options: r.set.probeOpts, Testbed: tb, Sim: s,
				MaxProcs: r.set.maxProcs})
		}
	}

	runStart := obs.Now()
	var sections unitSections
	runUnits(ctx, len(units), r.set.maxProcs,
		func(u int) func(workerSlots) {
			return func(w workerSlots) { runUnit(u, w) }
		},
		func(u int, skipped bool) {
			if skipped {
				for _, i := range units[u] {
					done(i, ctx.Err())
				}
				return
			}
			sections.add(u, &tel[u])
		})
	if r.set.report {
		r.finishReport(sections.report(false, 0), runStart)
	}

	out := make(Results, 0, total)
	for _, res := range slots {
		if res != nil {
			out = append(out, res)
		}
	}
	return out, runError(exps, errs)
}

// workerSlots is the run's worker bound: a unit holds one slot while it
// executes a simulator, so at most maxProcs units do at once.
type workerSlots chan struct{}

func (w workerSlots) acquire() { w <- struct{}{} }
func (w workerSlots) release() { <-w }

// runUnits is the one scheduler behind Run: it executes n sealed units
// — inventory lanes and Standalone experiments, or fleet shards — and
// merges them in unit order. Three goroutine roles cooperate:
//
//   - a dispatcher walks units in index order, takes a window token
//     for each, calls launch(i) on its own goroutine (so per-unit
//     inputs drawn there, like a fleet's profile stream, are drawn in
//     unit order) and starts the returned body on a new goroutine;
//   - bodies — at most maxProcs holding a workerSlots slot at once —
//     execute their unit and publish its output;
//   - the calling goroutine runs merge(i, skipped) strictly in unit
//     order as each body finishes, then returns the unit's window
//     token. The token return is what bounds resident units — the
//     run's memory budget — to the window, a small constant over
//     maxProcs.
//
// When ctx is cancelled the dispatcher stops and marks every
// undispatched unit skipped: merge still sees each unit exactly once,
// and never blocks on a body that will not run. Nothing here depends on
// scheduling, so a run whose units are pure functions of their index
// merges identically at any maxProcs.
func runUnits(ctx context.Context, n, maxProcs int, launch func(i int) func(workerSlots), merge func(i int, skipped bool)) {
	procs := max(1, min(maxProcs, n))
	// The window's slack over procs lets finished units await their
	// merge turn without idling workers behind a slow head unit.
	window := make(chan struct{}, procs+2)
	slots := make(workerSlots, procs)
	done := make([]chan struct{}, n)
	for i := range done {
		done[i] = make(chan struct{})
	}
	skipped := make([]bool, n)

	go func() {
		for i := 0; i < n; i++ {
			select {
			case window <- struct{}{}:
			case <-ctx.Done():
				for ; i < n; i++ {
					skipped[i] = true
					close(done[i])
				}
				return
			}
			body := launch(i)
			go func() {
				defer close(done[i])
				body(slots)
			}()
		}
	}()

	for i := 0; i < n; i++ {
		<-done[i]
		merge(i, skipped[i])
		if !skipped[i] {
			<-window
		}
	}
}

// unitTelemetry is one unit's telemetry frame (WithRunReport): its
// registry plus the wall/sim-time frame its report section needs. The
// body fills it; it reaches the merger over the unit's done edge, and
// the merger owns it from then on.
type unitTelemetry struct {
	reg     *obs.Registry
	start   time.Time
	simEnd  time.Duration
	wallMS  float64
	devices int
}

// beginUnit opens unit i's registry, when the run reports telemetry.
func (r *Runner) beginUnit(t *unitTelemetry, i, devices int) {
	if !r.set.report {
		return
	}
	t.reg = obs.NewRegistry()
	t.reg.Trace(obs.TraceShardStart, 0, uint32(i))
	t.devices = devices
	t.start = obs.Now()
}

// finish records the unit's final virtual time (s may be nil when no
// simulator was built) and its wall clock.
func (t *unitTelemetry) finish(s *Sim) {
	if t.reg == nil {
		return
	}
	if s != nil {
		t.simEnd = time.Duration(s.Now())
	}
	t.wallMS = float64(obs.Since(t.start)) / 1e6
}

// unitSections assembles a run's report sections. The merge adds units
// strictly in unit order, so sections and totals are identical at any
// worker count.
type unitSections struct {
	shards []ShardReport
	snaps  []*obs.Snapshot
}

// add turns unit i's telemetry into its report section, stamping the
// merge marker first; units without a registry add nothing.
func (u *unitSections) add(i int, t *unitTelemetry) {
	if t.reg == nil {
		return
	}
	t.reg.Trace(obs.TraceShardMerge, t.simEnd, uint32(i))
	snap := t.reg.Snapshot()
	u.snaps = append(u.snaps, snap)
	u.shards = append(u.shards, ShardReport{
		Index:    i,
		Devices:  t.devices,
		SimEndNS: int64(t.simEnd),
		WallMS:   t.wallMS,
		Metrics:  metricsFromSnapshot(snap),
		Trace:    traceEntries(snap.Trace),
	})
}

// report builds the run report from the sections added so far.
func (u *unitSections) report(fleet bool, devices int) *RunReport {
	shards := u.shards
	if shards == nil {
		shards = []ShardReport{} // a run without sections reports [], not null
	}
	return &RunReport{
		Fleet:   fleet,
		Devices: devices,
		Shards:  shards,
		Totals:  metricsFromSnapshot(obs.Merge(u.snaps...)),
	}
}

// resolveIDs looks up, trims and deduplicates a requested id list.
func resolveIDs(ids []string) ([]*Experiment, error) {
	var exps []*Experiment
	seen := map[string]bool{}
	for _, id := range ids {
		id = strings.TrimSpace(id)
		if id == "" {
			// Tolerate stray commas in CLI-assembled lists.
			continue
		}
		e, err := Lookup(id)
		if err != nil {
			return nil, err
		}
		if seen[e.ID] {
			continue
		}
		seen[e.ID] = true
		exps = append(exps, e)
	}
	return exps, nil
}

// ErrNotFleetCapable is the sentinel wrapped by errors reporting an
// experiment without a population Sweep requested in fleet mode.
var ErrNotFleetCapable = errors.New("experiment has no population sweep")

// runFleet executes experiments against a synthetic device fleet: n
// profiles sampled from the paper's population distributions, split
// across k shard testbeds. Execution is shard-major: each shard is a
// runUnits unit, built, swept by every experiment in run order,
// reduced to population points and released, with up to WithMaxProcs
// shards in flight at once. Every shard is an independent virtual time
// domain and the merge consumes shards strictly in shard order, so the
// output — rendered figures and the WithDeviceResults stream alike — is
// byte-identical at any worker count (DESIGN.md §12).
func (r *Runner) runFleet(ctx context.Context, ids []string) (Results, error) {
	if len(ids) == 0 {
		ids = FleetIDs()
	}
	exps, err := resolveIDs(ids)
	if err != nil {
		return nil, err
	}
	for _, e := range exps {
		if e.Sweep == nil {
			return nil, fmt.Errorf("fleet mode: experiment %q: %w", e.ID, ErrNotFleetCapable)
		}
	}

	total := len(exps)
	for i, e := range exps {
		r.emit(Progress{ID: e.ID, Index: i, Total: total})
	}
	runStart := obs.Now()
	pts, rep, sweepErr := r.sweepShards(ctx, exps)
	if rep != nil {
		// Failed or cancelled sweeps return no report: a partial one
		// would not satisfy the determinism contract the report
		// documents.
		r.finishReport(rep, runStart)
	}

	out := make(Results, 0, total)
	errs := make([]error, total)
	for i, e := range exps {
		if sweepErr != nil {
			// A failed or cancelled shard leaves every experiment's
			// figure incomplete: the failure is attributed to all of
			// them. The shards themselves were ephemeral to this Run,
			// so the Runner stays reusable.
			errs[i] = sweepErr
			r.emit(Progress{ID: e.ID, Index: i, Total: total, Done: true, Err: sweepErr})
			continue
		}
		fig := report.NewFigureFromPoints(e.Title, e.Unit, pts[i])
		text := fig.RenderSummary()
		if len(fig.Points) <= 40 {
			text = fig.Render(50, e.LogScale)
		}
		out = append(out, e.result(&fig, nil, text))
		r.emit(Progress{ID: e.ID, Index: i, Total: total, Done: true})
	}
	return out, runError(exps, errs)
}

// shardBatch is one shard's completed output, handed from its unit body
// to the in-order merge: per-experiment population points (device
// order) plus, when a device callback is installed, the raw rows its
// events replay, and the shard's telemetry frame.
type shardBatch struct {
	pts  [][]stats.DevicePoint
	rows [][]DeviceResult
	tel  unitTelemetry
	err  error
	// memo marks a batch replayed from the memo store; blob is an
	// executed shard's encoded rows, handed to the merger so only
	// shards that reach a successful merge populate the store.
	memo bool
	blob []byte
}

// sweepShards runs every fleet shard as a runUnits unit and returns,
// per experiment, the concatenation of all shards' population points in
// shard order.
//
// The dispatcher draws each shard's profile chunk from one sequential
// gateway.SynthStream as it launches the shard (chunking does not
// perturb the stream, so the fleet population is never materialized
// whole). A shard body builds its testbed, sweeps every experiment on
// it sequentially and reduces the device rows to points; a memo hit
// instead replays recorded rows without taking a worker slot. The
// merge emits device events and accumulates points and report
// sections in shard order.
//
// Seed derivations, the profile stream and the merge order depend only
// on (settings, shard index), never on scheduling, so the returned
// points are identical at any maxProcs — and so is the returned
// telemetry report (nil unless WithRunReport).
func (r *Runner) sweepShards(ctx context.Context, exps []*Experiment) ([][]stats.DevicePoint, *RunReport, error) {
	bounds := testbed.Partition(r.set.fleet, r.set.shards)
	n := len(bounds) - 1
	batches := make([]shardBatch, n)

	// With a memo store attached, every shard's content address is
	// known up front: keys depend only on (settings, shard index,
	// partition), never on execution.
	var memoKeys []string
	if r.set.memo != nil {
		memoKeys = make([]string, n)
		for i := 0; i < n; i++ {
			memoKeys[i] = shardKey(r.set, exps, i, bounds[i], bounds[i+1])
		}
	}

	work := func(i int, profiles []gateway.Profile, w workerSlots) {
		b := &batches[i]
		// curExp names the experiment the sweep loop is executing, so a
		// recovered panic is attributable (ShardError) instead of the
		// historical anonymous "shard N: panic".
		var curExp string
		defer func() {
			if p := recover(); p != nil {
				// Salvage the points of the experiments this shard did
				// complete, then drop the batch's result fields: the
				// merger must not mistake a partial batch for a good one.
				var partial []stats.DevicePoint
				for _, ep := range b.pts {
					partial = append(partial, ep...)
				}
				b.err = &ShardError{
					Shard:        i,
					ExperimentID: curExp,
					Partial:      partial,
					Err:          fmt.Errorf("panic: %v", p),
				}
				b.pts, b.rows = nil, nil
			}
		}()
		if memoKeys != nil {
			if blob, ok := r.set.memo.Get(memoKeys[i]); ok {
				if rows, derr := decodeShardRows(blob, len(exps)); derr == nil {
					// Memo hit: replay the recorded rows through the same
					// reduction the cold path uses — no worker slot, no
					// simulator, byte-identical merge. The window token
					// still bounds how many replayed batches are resident.
					r.emit(Progress{Kind: ProgressShard, Shard: i, Index: i, Total: n})
					b.pts = make([][]stats.DevicePoint, len(exps))
					for j := range rows {
						b.pts[j] = pointsFromRows(rows[j])
					}
					if r.set.deviceCB != nil {
						b.rows = rows
					}
					b.tel.devices = len(profiles)
					b.memo = true
					return
				}
				// A blob that no longer decodes (e.g. written by an older
				// build) is a miss: fall through, re-execute, re-record.
			}
		}
		w.acquire()
		defer w.release()
		if err := ctx.Err(); err != nil {
			b.err = err
			return
		}
		r.beginUnit(&b.tel, i, len(profiles))
		r.emit(Progress{Kind: ProgressShard, Shard: i, Index: i, Total: n})
		// The live-shard gauge brackets the shard's whole life: Up
		// before the build, Down (deferred) after the deferred
		// Shutdown unwinds the simulator — the pairing the
		// goroutine-leak tripwire test asserts returns to baseline.
		obs.Proc.ShardUp()
		defer obs.Proc.ShardDown()
		sh, err := testbed.BuildShard(profiles, i, bounds[i], r.set.seed, b.tel.reg)
		if err != nil {
			b.err = err
			return
		}
		// Unwind the shard's process goroutines before publishing the
		// batch: servers park forever and the Go runtime never collects
		// a blocked goroutine, so skipping this leaks the entire shard
		// per shard processed (§12's memory budget depends on it).
		defer sh.Sim.Shutdown()
		r.mu.Lock()
		r.testbedsBuilt++
		r.mu.Unlock()
		// This goroutine owns the shard's simulator for the shard's
		// whole life: poll ctx between events so cancellation
		// interrupts a sweep mid-run instead of waiting it out.
		sh.Sim.SetInterrupt(func() bool { return ctx.Err() != nil })
		// Chaos: the shard's fault plan (seed-split per shard index)
		// schedules its events before any sweep runs, mirroring real
		// faults striking mid-measurement.
		r.installFaults(sh.Sim, sh.Testbed, i)
		b.pts = make([][]stats.DevicePoint, len(exps))
		if r.set.deviceCB != nil {
			b.rows = make([][]DeviceResult, len(exps))
		}
		var memoRows [][]DeviceResult
		if memoKeys != nil {
			memoRows = make([][]DeviceResult, len(exps))
		}
		for j, e := range exps {
			curExp = e.ID
			rows := e.Sweep(&Env{
				Seed:    r.set.seed + int64(i),
				Options: r.set.probeOpts,
				Testbed: sh.Testbed,
				Sim:     sh.Sim,
			})
			if err := ctx.Err(); err != nil {
				b.err = err // interrupted mid-sweep: rows are incomplete
				return
			}
			// Reduce rows to points here, matching report.NewFigure's
			// reduction, so the merge accumulates three floats per
			// device instead of every raw sample.
			b.pts[j] = pointsFromRows(rows)
			if b.rows != nil {
				b.rows[j] = rows
			}
			if memoRows != nil {
				memoRows[j] = rows
			}
		}
		if memoRows != nil {
			// Encode here (off the merge path), but let the merger do the
			// Put: only a shard that reaches a successful merge is
			// recorded, so a cancelled run never persists partial work.
			if blob, eerr := encodeShardRows(memoRows); eerr == nil {
				b.blob = blob
			}
		}
		b.tel.finish(sh.Sim)
	}

	stream := gateway.NewSynthStream(r.set.seed)
	pts := make([][]stats.DevicePoint, len(exps))
	var sections unitSections
	var firstErr error
	runUnits(ctx, n, r.set.maxProcs,
		func(i int) func(workerSlots) {
			profiles := stream.Next(bounds[i+1] - bounds[i])
			return func(w workerSlots) { work(i, profiles, w) }
		},
		func(i int, skipped bool) {
			b := &batches[i]
			if skipped {
				b.err = ctx.Err()
			}
			if firstErr == nil {
				firstErr = b.err
			}
			if firstErr == nil {
				for j, e := range exps {
					if b.rows != nil {
						for _, dr := range b.rows[j] {
							r.emitDevice(DeviceEvent{ExperimentID: e.ID, Shard: i, Result: dr})
						}
					}
					pts[j] = append(pts[j], b.pts[j]...)
				}
				if b.blob != nil {
					// Populate from the merge boundary: this shard executed
					// fully and its rows are now part of the run's output.
					r.set.memo.Put(memoKeys[i], b.blob)
				}
				if b.memo && r.set.report {
					// A memoized shard ran no simulator: its section
					// records the replay, carrying no metrics or trace.
					sections.shards = append(sections.shards, ShardReport{
						Index:    i,
						Devices:  b.tel.devices,
						Memoized: true,
					})
				}
				sections.add(i, &b.tel)
			}
			if !skipped {
				r.emit(Progress{Kind: ProgressShard, Shard: i, Index: i, Total: n, Done: true, Err: b.err})
			}
			// Drop the batch before runUnits returns its token: the
			// token lets the dispatcher admit another shard, so this
			// shard's rows must already be collectable.
			*b = shardBatch{}
		})
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	if firstErr != nil {
		return nil, nil, firstErr
	}
	if !r.set.report {
		return pts, nil, nil
	}
	return pts, sections.report(true, r.set.fleet), nil
}

// installFaults compiles the run's fault plan for one fleet shard (or
// inventory lane) and schedules it on the simulator. index seed-splits
// the plan (fault.PlanSeed), so each shard draws an independent event
// schedule while equal-seed runs reproduce it exactly; a disabled spec
// is a no-op, costing unfaulted runs nothing. Standalone experiments
// build their own testbeds out of the Runner's sight and run unfaulted.
func (r *Runner) installFaults(s *Sim, tb *Testbed, index int) {
	if !r.set.faults.Enabled() {
		return
	}
	f := r.set.faults.normalized()
	plan := fault.Compile(fault.Spec{
		Seed:        fault.PlanSeed(r.set.seed, index),
		Nodes:       len(tb.Nodes),
		Flaps:       f.Flaps,
		LossWindows: f.LossWindows,
		Corrupts:    f.Corrupts,
		Blackholes:  f.Blackholes,
		Reboots:     f.Reboots,
		LossP:       f.LossP,
		Horizon:     f.Horizon,
	})
	nodes := make([]fault.NodeFaults, len(tb.Nodes))
	for i, n := range tb.Nodes {
		nodes[i] = fault.NodeFaults{
			WAN:    n.WANLink(),
			Reboot: n.Dev.Reboot,
		}
	}
	plan.Install(s, nodes)
}

// emitDevice serializes per-device fleet callbacks.
func (r *Runner) emitDevice(ev DeviceEvent) {
	if r.set.deviceCB == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.set.deviceCB(ev)
}

// newTestbed builds and boots one Figure 1 testbed for a lane,
// translating the testbed package's setup panics into errors. reg,
// when non-nil, is attached to the lane's simulator before any event
// runs (WithRunReport).
func (r *Runner) newTestbed(reg *obs.Registry) (tb *Testbed, s *Sim, err error) {
	r.mu.Lock()
	r.testbedsBuilt++
	r.mu.Unlock()
	defer func() {
		if p := recover(); p != nil {
			tb, s, err = nil, nil, fmt.Errorf("testbed setup: %v", p)
		}
	}()
	tb, s = testbed.Run(testbed.Config{Tags: r.set.tags, Seed: r.set.seed, Obs: reg})
	return tb, s, nil
}

// emit serializes progress callbacks.
func (r *Runner) emit(p Progress) {
	if r.set.progress == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.set.progress(p)
}
