// Package gearbox is the core of the reproduction: the event-accurate
// simulator of the Gearbox accelerator. A Machine takes a partition.Plan, a
// semiring, and the Table 2 geometry/timing, then executes generalized
// SpMSpV iterations through the six steps of §5 — FrontierDistribution,
// OffsetPacking, LocalAccumulations, Dispatching, RemoteAccumulations,
// Applying — functionally computing the result while charging every
// micro-event (SPU instruction slots, row activations, interconnect hops,
// TSV crossings, logic-layer operations) at the costs pinned to the
// fulcrum-package interpreter.
package gearbox

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"gearbox/internal/fulcrum"
	"gearbox/internal/interconnect"
	"gearbox/internal/mem"
	"gearbox/internal/par"
	"gearbox/internal/partition"
	"gearbox/internal/semiring"
	"gearbox/internal/sim"
	"gearbox/internal/telemetry"
)

// FrontierEntry is one non-zero of the sparse input vector, in the plan's
// relabeled index space.
type FrontierEntry struct {
	Index int32
	Value float32
}

// Frontier is the sparse input vector partitioned by residence: Local[k]
// holds the entries whose columns SPU k owns; Long holds entries that
// activate long columns and live in the logic layer (§3.2).
type Frontier struct {
	Local [][]FrontierEntry
	Long  []FrontierEntry

	// pooled marks a frontier currently owned by a Machine's recycle pool;
	// it guards against double-Recycle handing the same backing arrays to
	// two callers.
	pooled bool
	// epoch is the machine run epoch the frontier was built in. ResetForRun
	// bumps the machine's epoch, so a frontier that survived from before a
	// reset can neither be iterated (Iterate errors) nor slipped back into
	// the recycle pool (Recycle drops it).
	epoch int32
}

// NNZ reports the frontier's total entry count.
func (f *Frontier) NNZ() int {
	n := len(f.Long)
	for _, l := range f.Local {
		n += len(l)
	}
	return n
}

// Entries flattens the frontier into a sorted entry list (for tests and for
// handing results back to applications). It allocates; iterative callers
// should prefer AppendEntries with a reused buffer.
func (f *Frontier) Entries() []FrontierEntry {
	return f.AppendEntries(nil)
}

// AppendEntries appends the frontier's entries to dst in ascending index
// order and returns the extended slice. Passing dst[:0] of a buffer kept
// across iterations makes frontier extraction allocation-free in steady
// state; the appended entries are copies, so dst stays valid after the
// frontier is recycled.
//
//gearbox:steadystate
func (f *Frontier) AppendEntries(dst []FrontierEntry) []FrontierEntry {
	start := len(dst)
	dst = append(dst, f.Long...) //gearbox:alloc-ok caller-owned buffer; grows once to its high-water mark
	for _, l := range f.Local {
		dst = append(dst, l...) //gearbox:alloc-ok caller-owned buffer; grows once to its high-water mark
	}
	slices.SortFunc(dst[start:], func(a, b FrontierEntry) int { return int(a.Index) - int(b.Index) })
	return dst
}

// Config carries machine-level knobs beyond geometry and timing.
type Config struct {
	Geo mem.Geometry
	Tim mem.Timing
	// DispatchBufferPairs is the per-bank Dispatcher receive reservation in
	// (index,value) pairs; overflowing it triggers the §6 stall protocol.
	DispatchBufferPairs int
	// DisableOverlap turns off the §4.1 row-activation/processing overlap
	// (ablation: every random activation stalls the full row cycle).
	DisableOverlap bool
	// ModelRefresh charges the DRAM refresh tax: subarrays are unavailable
	// for TRFC out of every TREFI, stretching SPU busy time.
	ModelRefresh bool
	TREFINs      float64 // refresh interval; default 3900 ns (fine-grained)
	TRFCNs       float64 // refresh latency; default 350 ns
	// BitErrorRate injects deterministic single-bit mantissa flips into
	// accumulated contributions at the given per-accumulation probability
	// (§9: graph processing tolerates DRAM-class error rates). Zero
	// disables injection. Every SPU draws from its own splitmix64 stream
	// keyed by (ErrorSeed, SPU index), so injection is reproducible and
	// independent of how the step loops are sharded across workers.
	BitErrorRate float64
	ErrorSeed    uint64
	// Workers sizes the deterministic worker pool that shards the per-SPU
	// loops of steps 2, 3, 5 and 6 across goroutines: 0 selects
	// GOMAXPROCS, 1 is the serial path. Simulated results (RunStats,
	// frontiers, outputs) are bit-identical for every value; see DESIGN.md
	// "Execution model" for the merge-order rules that guarantee it.
	Workers int
}

// DefaultConfig returns the Table 2 machine: default geometry/timing and a
// dispatcher buffer of one subarray row-pair region (1024 pairs).
func DefaultConfig() Config {
	return Config{
		Geo: mem.DefaultGeometry(), Tim: mem.DefaultTiming(),
		DispatchBufferPairs: 1024,
		TREFINs:             3900, TRFCNs: 350,
	}
}

// Machine simulates one Gearbox stack running one partitioned matrix.
type Machine struct {
	plan *partition.Plan
	sem  semiring.Semiring
	cfg  Config
	net  *interconnect.Network
	eng  *sim.Engine
	pool *par.Pool

	clean  float32
	output []float32 // dense output vector, relabeled index space

	// Per-SPU replicated long-output regions (GearboxV3, Fig. 7b).
	replicas [][]float32
	// Logic-layer accumulator for long outputs (V2 sends, V3 reduction) and
	// the list of slots that turned non-clean this iteration.
	logicAcc   []float32
	logicDirty []int32

	// Per-SPU error-injection stream states (splitmix64) and flip counts.
	// One stream per SPU keeps injection deterministic under any worker
	// sharding: SPU k always draws the same sequence regardless of which
	// goroutine runs its loop.
	errStates []uint64
	errCounts []int64

	// Scratch reused across iterations.
	busy      []float64
	dirty     [][]int32 // newly non-clean short indexes per SPU
	dirtyLong [][]int32 // newly non-clean replica slots per SPU (V3)
	// Step 6 reduce buckets (V3): redBlockOf maps a long slot to the guided
	// reduce block that owns it, and redBucket[b] lists block b's dirty
	// replica slots as k<<32|slot keys, ascending by SPU k (runStep6Reduce).
	redBlockOf []int32
	redBucket  [][]uint64
	// longWork[k] is SPU k's step 3 worklist: the LongEntries ranges of the
	// long pieces this iteration's frontier activates on SPU k, in frontier
	// order (buildLongWork).
	longWork [][]longItem
	emit     []spuEmit // step 3 per-SPU out-buckets, folded in SPU order
	// emitters lists, ascending, the SPUs whose step 3 sent dispatcher
	// pairs this iteration; step 5 folds only their buckets.
	emitters []int32
	// dstBlockOf maps a destination SPU to the guided block that owns it in
	// step 5's ForEachBlockDynamic partition (stable for a fixed pool
	// width); step 3 buckets its pairs by it so the fold of block b reads
	// contiguous runs instead of filtering every pair once per worker.
	dstBlockOf []int32
	scr        scratch        // pooled per-iteration accounting buffers
	reduceWG   sync.WaitGroup // joins step 6's reduce-stage goroutine

	// Plan facts cached at New so the worker bodies read fields instead of
	// recomputing per call.
	hypo      bool    // HypoLogicLayer scheme
	replicate bool    // V3 replicated long region
	cyc       float64 // SPU cycle time in ns
	bankOf    []int32 // flat bank id per compute-SPU index

	// Frontier recycle pool: frontiers handed back via Recycle, reused by
	// DistributeFrontier and step 6 instead of fresh allocations.
	freeFrontiers []*Frontier
	// runEpoch counts ResetForRun calls; frontiers are stamped with it so
	// pre-reset stragglers are rejected instead of corrupting the next run.
	runEpoch int32

	// Current-iteration state published for the pre-bound worker bodies
	// (created once at New, so Iterate never allocates closures).
	curF     *Frontier
	curApply *ApplySpec
	curNext  *Frontier
	iterSt   IterStats

	fnStep2, fnStep3      func(w, k int)
	fnApply, fnEmit       func(w, k int)
	fnStep5, fnMergeLogic func(w, b, lo, hi int)
	fnMergeHypoShort      func(w, b, lo, hi int)
	fnReduceRep           func(w, b, lo, hi int)
	fnReduceStage         func()

	instrCosts costs

	// Spatial telemetry: nil means disabled (the hot path pays one nil check
	// per step). The tel* arrays are SPU-indexed step-3 accumulation counts,
	// rewritten each iteration by step3SPUBody only while a sink is attached;
	// iterCount numbers BeginIteration callbacks across the machine's life.
	tel                         telemetry.Sink
	telLocal, telRemote, telLng []int64
	iterCount                   int
}

// spuEmit buffers the shared-state effects SPU k's step 3 loop produces, so
// the loop itself can run on any worker goroutine while the effects are
// folded later in fixed SPU order (bit-identical to the serial path): the
// logic-layer contributions after step 3's barrier, the dispatcher pairs by
// step 5 straight out of the buckets. The layouts are SoA: packed 8-byte
// keys plus a parallel value array stream through the fold in
// cache-line-sized runs.
type spuEmit struct {
	// bKey[b]/bVal[b] hold the dispatcher traffic bound for destination
	// block b — local clean-indicator pairs (dst == k) and remote
	// accumulations (dst == owner) — in emission order. A key packs
	// dst<<32 | uint32(enc), where enc is the row index for a remote
	// accumulation and ^row (negative) for a clean-indicator pair; values
	// align one-to-one (clean pairs carry 0).
	bKey [][]uint64
	bVal [][]float32
	// logicIdx/logicVal are the contributions bound for shared logic-layer
	// state (V2 long sends; in HypoGearboxV2, every accumulation), in
	// emission order.
	logicIdx []int32
	logicVal []float32
	// sentPairs and logicPairs drive the SPU's network sends.
	sentPairs  int64
	logicPairs int64
}

// costs bundles the per-entry instruction counts pinned to the fulcrum
// interpreter kernels.
type costs struct {
	packInstrs       int64 // Step 2, per frontier entry (Fig. 10)
	macLocal         int64 // Step 3, local accumulation (ColumnMAC)
	macRemote        int64 // Step 3, dispatched contribution
	dispatchPerRow   int64 // Steps 3-4, dispatcher SPU work per buffered row of pairs
	scatterLocal     int64 // Step 5, per received pair (ScatterAccumulate)
	cleanAppend      int64 // Step 5, appending a clean index
	frontierEmit     int64 // Step 6, per dirty slot (read+emit+reset)
	applyPerWord     int64 // Step 6, streaming apply (StreamApply)
	logicOpNsPerPair float64
}

func defaultCosts(t mem.Timing) costs {
	return costs{
		packInstrs: fulcrum.OffsetPackingInstrs,
		macLocal:   fulcrum.ColumnMACLocalInstrs,
		macRemote:  fulcrum.ColumnMACRemoteInstrs,
		// The Dispatcher's switch routes packets at the interconnect clock
		// (charged by the network model); the Dispatcher SPU only loads and
		// drains its Walker buffer one row (WordsPerRow/2 pairs) at a time.
		dispatchPerRow: 2,
		scatterLocal:   fulcrum.ScatterLocalInstrs,
		cleanAppend:    2,
		frontierEmit:   4,
		applyPerWord:   fulcrum.StreamApplyInstrs,
		// One logic-layer accumulation is a read-modify-write by the
		// vault's in-order core against its 32 KB scratchpad: two SRAM
		// accesses plus a few core cycles.
		logicOpNsPerPair: 6 * t.LogicSRAMNs,
	}
}

// New builds a machine for a plan. The semiring's Zero is the clean value.
func New(plan *partition.Plan, sem semiring.Semiring, cfg Config) (*Machine, error) {
	if err := cfg.Geo.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Tim.Validate(); err != nil {
		return nil, err
	}
	if cfg.DispatchBufferPairs < 1 {
		return nil, fmt.Errorf("gearbox: dispatch buffer must hold at least one pair")
	}
	if plan.Geo != cfg.Geo {
		return nil, fmt.Errorf("gearbox: plan was built for a different geometry")
	}
	if plan.NumSPUs < 1 {
		// A zero-SPU plan would turn busyStats' mean into NaN and poison
		// every downstream time; reject it up front.
		return nil, fmt.Errorf("gearbox: plan has %d SPUs, need at least 1", plan.NumSPUs)
	}
	net, err := interconnect.New(cfg.Geo, cfg.Tim)
	if err != nil {
		return nil, err
	}
	n := int(plan.Matrix.NumRows)
	m := &Machine{
		plan:       plan,
		sem:        sem,
		cfg:        cfg,
		net:        net,
		eng:        sim.New(),
		pool:       par.New(cfg.Workers),
		clean:      sem.Zero(),
		output:     make([]float32, n),
		busy:       make([]float64, plan.NumSPUs),
		dirty:      make([][]int32, plan.NumSPUs),
		dirtyLong:  make([][]int32, plan.NumSPUs),
		longWork:   make([][]longItem, plan.NumSPUs),
		emit:       make([]spuEmit, plan.NumSPUs),
		hypo:       plan.Cfg.Scheme == partition.HypoLogicLayer,
		replicate:  plan.Cfg.Replicate,
		cyc:        cfg.Tim.SPUCycleNs(),
		instrCosts: defaultCosts(cfg.Tim),
	}
	for i := range m.output {
		m.output[i] = m.clean
	}
	m.bankOf = make([]int32, plan.NumSPUs)
	for k := range m.bankOf {
		m.bankOf[k] = bankFlat(cfg.Geo, plan.SPUIDOf(k))
	}
	m.errStates = make([]uint64, plan.NumSPUs)
	m.errCounts = make([]int64, plan.NumSPUs)
	for k := range m.errStates {
		m.errStates[k] = errStreamSeed(cfg.ErrorSeed, k)
	}
	if plan.LastLong >= 0 {
		m.logicAcc = make([]float32, plan.LastLong+1)
		for i := range m.logicAcc {
			m.logicAcc[i] = m.clean
		}
		if plan.Cfg.Replicate {
			m.replicas = make([][]float32, plan.NumSPUs)
		}
	}
	m.initScratch()
	return m, nil
}

// Plan exposes the partition plan (read-only by convention).
func (m *Machine) Plan() *partition.Plan { return m.plan }

// Semiring exposes the machine's algebra.
func (m *Machine) Semiring() semiring.Semiring { return m.sem }

// DistributeFrontier splits entries (relabeled indexes) by residence. It is
// the software side of Step 1: long-column activators go to the logic layer,
// everything else to the SPU owning the column. The returned frontier comes
// from the machine's recycle pool when one is available; hand it back with
// Recycle once it is no longer needed to keep steady state allocation-free.
//
//gearbox:steadystate
func (m *Machine) DistributeFrontier(entries []FrontierEntry) (*Frontier, error) {
	f := m.getFrontier()
	n := m.plan.Matrix.NumRows
	for _, e := range entries {
		switch {
		case e.Index < 0 || e.Index >= n:
			m.Recycle(f)
			return nil, fmt.Errorf("gearbox: frontier index %d out of range", e.Index) //gearbox:alloc-ok cold path: an invalid frontier aborts the run
		case e.Index <= m.plan.LastLong:
			f.Long = append(f.Long, e) //gearbox:alloc-ok recycled frontier buffer; grows to its high-water mark
		default:
			k := m.plan.OwnerOf[e.Index]
			f.Local[k] = append(f.Local[k], e) //gearbox:alloc-ok recycled frontier buffer; grows to its high-water mark
		}
	}
	return f, nil
}

// IterateOptions controls one SpMSpV iteration.
type IterateOptions struct {
	// Apply, when non-nil, runs the §2.2 Applying op over the whole output
	// vector in Step 6: output[i] = output[i] ⊕ (Alpha ⊗ Y[i]). Y uses the
	// relabeled index space; it makes the output dense, so the returned
	// frontier enumerates every vertex.
	Apply *ApplySpec
}

// ApplySpec is the Applying step's parameters.
type ApplySpec struct {
	Alpha float32
	Y     []float32
}

// stepNames are the §5 phase names on the engine's trace timeline, in order.
var stepNames = [6]string{
	"step1-frontier-distribution",
	"step2-offset-packing",
	"step3-local-accumulations",
	"step4-dispatching",
	"step5-remote-accumulations",
	"step6-applying",
}

// Iterate runs one generalized SpMSpV iteration: Output = Matrix ⊗ frontier
// over the machine's semiring, returning the next frontier (the sparse form
// of the output vector) and the iteration's statistics. The output vector is
// reset to clean afterwards, as Step 6 prescribes.
//
// The returned frontier's buffers belong to the caller until handed back via
// Recycle; in steady state (caller recycles its frontiers) Iterate allocates
// nothing.
//
//gearbox:steadystate
func (m *Machine) Iterate(f *Frontier, opts IterateOptions) (*Frontier, IterStats, error) {
	if len(f.Local) != m.plan.NumSPUs {
		return nil, IterStats{}, fmt.Errorf("gearbox: frontier built for %d SPUs, machine has %d", len(f.Local), m.plan.NumSPUs) //gearbox:alloc-ok cold path: caller misuse aborts the iteration
	}
	if f.pooled {
		return nil, IterStats{}, fmt.Errorf("gearbox: frontier was recycled; the pool owns its buffers") //gearbox:alloc-ok cold path: caller misuse aborts the iteration
	}
	if f.epoch != m.runEpoch {
		return nil, IterStats{}, fmt.Errorf("gearbox: frontier from run epoch %d, machine was reset to epoch %d (redistribute the entries after ResetForRun)", f.epoch, m.runEpoch) //gearbox:alloc-ok cold path: caller misuse aborts the iteration
	}
	if opts.Apply != nil && int32(len(opts.Apply.Y)) != m.plan.Matrix.NumRows {
		return nil, IterStats{}, fmt.Errorf("gearbox: apply vector length %d, want %d", len(opts.Apply.Y), m.plan.Matrix.NumRows) //gearbox:alloc-ok cold path: caller misuse aborts the iteration
	}

	// Iteration state lives on the machine (not locals captured by closures)
	// so the pre-bound worker bodies can reach it and the hot path stays
	// allocation-free. The six §5 steps each compute functionally, then play
	// their duration as one engine event, so the clock advances through the
	// iteration and trace subscribers see the same phase timeline the old
	// event-chain produced.
	m.iterSt = IterStats{}
	st := &m.iterSt
	m.curF, m.curApply, m.curNext = f, opts.Apply, nil
	if m.tel != nil {
		m.tel.BeginIteration(m.iterCount, m.eng.Now(), int64(f.NNZ()))
	}
	for i := 0; i < 6; i++ {
		switch i {
		case 0:
			m.step1FrontierDistribution(f, st)
		case 1:
			m.step2OffsetPacking(f, st)
		case 2:
			m.step3LocalAccumulations(f, st)
		case 3:
			m.step4Dispatching(st)
		case 4:
			m.step5RemoteAccumulations(st)
		case 5:
			m.curNext = m.step6Applying(opts, st)
		}
		m.eng.After(st.Steps[i].TimeNs, stepNames[i], nil)
		m.eng.Run()
		if m.tel != nil {
			m.stepTelemetry(i + 1)
		}
	}
	m.iterCount++

	next := m.curNext
	out := m.iterSt
	if m.tel != nil {
		m.tel.EndIteration(m.eng.Now(), out.FrontierOut)
	}
	m.curF, m.curApply, m.curNext = nil, nil, nil
	return next, out, nil
}

// SetTrace subscribes to the engine's phase timeline: fn receives each step
// name and its completion time on the simulated clock.
func (m *Machine) SetTrace(fn func(name string, atNs float64)) { m.eng.Trace = fn }

// SetTelemetry attaches a spatial telemetry sink (nil detaches). The sink
// receives per-SPU, per-link and per-bank counters after every step; see
// internal/telemetry for the callback contract. All callbacks run on the
// goroutine driving Iterate with values that are bit-identical at any
// Config.Workers setting. A steady-state-safe sink (telemetry.SpatialStats)
// keeps Iterate allocation-free.
func (m *Machine) SetTelemetry(s telemetry.Sink) {
	m.tel = s
	if s != nil && m.telLocal == nil {
		m.telLocal = make([]int64, m.plan.NumSPUs)
		m.telRemote = make([]int64, m.plan.NumSPUs)
		m.telLng = make([]int64, m.plan.NumSPUs)
	}
}

// TelemetryShape reports the spatial dimensions a sink for this machine must
// be sized for; pass it to telemetry.NewSpatialStats.
func (m *Machine) TelemetryShape() telemetry.Shape {
	return telemetry.ShapeOf(m.cfg.Geo, m.plan.NumSPUs)
}

// Pool exposes the machine's worker pool, e.g. to enable host-side
// instrumentation (par.Pool.SetInstrumented) on the exact pool the step
// loops run on.
func (m *Machine) Pool() *par.Pool { return m.pool }

// ResetForRun returns a used machine to its just-built state, so a pooled
// machine can run another application without re-partitioning or rebuilding
// its worker pool. Passing a non-nil semiring also swaps the algebra (the
// clean value follows it), letting one machine serve apps over different
// semirings. After the reset the machine is observationally identical to a
// freshly built one: the engine clock is back at zero, the output vector,
// long-region accumulator and every replica hold the clean value, the
// error-injection streams are re-seeded to their initial states and the flip
// counters are zero, the interconnect counters are clear, iteration
// numbering restarts, and the trace and telemetry subscribers are detached
// (reattach them afterwards, as on a fresh build). A fresh-build-vs-reset
// equivalence suite pins that a run after ResetForRun is bit-identical —
// results, statistics and telemetry — to the same run on a fresh machine.
//
// The frontier recycle pool and all scratch allocations survive, which is
// the point: the second run reuses the first run's high-water buffers.
// Frontiers that escaped from before the reset are fenced off by a run
// epoch: Iterate rejects them and Recycle drops them.
func (m *Machine) ResetForRun(sem semiring.Semiring) {
	if sem != nil {
		m.sem = sem
	}
	m.clean = m.sem.Zero()

	m.eng.Reset()
	m.net.Reset()
	m.tel = nil

	for i := range m.output {
		m.output[i] = m.clean
	}
	for i := range m.logicAcc {
		m.logicAcc[i] = m.clean
	}
	m.logicDirty = m.logicDirty[:0]
	for k := range m.replicas {
		rep := m.replicas[k]
		for i := range rep {
			rep[i] = m.clean
		}
	}
	for k := range m.errStates {
		m.errStates[k] = errStreamSeed(m.cfg.ErrorSeed, k)
		m.errCounts[k] = 0
	}
	for k := range m.telLocal {
		m.telLocal[k], m.telRemote[k], m.telLng[k] = 0, 0, 0
	}
	m.resetScratch()
	m.iterCount = 0
	m.iterSt = IterStats{}
	m.curF, m.curApply, m.curNext = nil, nil, nil
	m.runEpoch++
}

// stepTelemetry feeds the sink after step (1-based) has played on the
// engine clock. It runs between steps, so the per-step state it reads —
// m.busy, the interconnect's per-link counters (reset at the start of each
// network-touching step), the dispatcher accounting arrays — still holds
// exactly what the step left behind.
//
//gearbox:steadystate
func (m *Machine) stepTelemetry(step int) {
	now := m.eng.Now()
	switch step {
	case 1:
		m.tel.LinkWords(1, now, m.net.RingSegmentWords(), m.net.TSVVaultWords())
	case 2:
		m.tel.StepSPUBusy(2, now, m.busy)
	case 3:
		m.tel.StepSPUBusy(3, now, m.busy)
		m.tel.SPUAccums(now, m.telLocal, m.telRemote, m.telLng)
		m.tel.DispatchOccupancy(3, now, m.scr.recvPerBank)
		m.tel.LinkWords(3, now, m.net.RingSegmentWords(), m.net.TSVVaultWords())
	case 4:
		m.tel.DispatchOccupancy(4, now, m.scr.recvPerBank)
		m.tel.LinkWords(4, now, m.net.RingSegmentWords(), m.net.TSVVaultWords())
	case 5:
		m.tel.StepSPUBusy(5, now, m.busy)
	case 6:
		m.tel.StepSPUBusy(6, now, m.busy)
		m.tel.LinkWords(6, now, m.net.RingSegmentWords(), m.net.TSVVaultWords())
	}
}

// NowNs reports the machine's simulated clock (sum of all step times run so
// far).
func (m *Machine) NowNs() float64 { return m.eng.Now() }

// Output returns a copy of the current dense output vector. Only meaningful
// between step 5 and the reset in step 6, so primarily for tests; apps use
// the returned frontier.
func (m *Machine) Output() []float32 { return append([]float32(nil), m.output...) }

// resetScratch prepares per-iteration buffers.
//
//gearbox:steadystate
func (m *Machine) resetScratch() {
	for k := range m.busy {
		m.busy[k] = 0
		m.dirty[k] = m.dirty[k][:0]
		m.dirtyLong[k] = m.dirtyLong[k][:0]
		m.longWork[k] = m.longWork[k][:0]
		e := &m.emit[k]
		for b := range e.bKey {
			e.bKey[b] = e.bKey[b][:0]
			e.bVal[b] = e.bVal[b][:0]
		}
		e.logicIdx = e.logicIdx[:0]
		e.logicVal = e.logicVal[:0]
		e.sentPairs = 0
		e.logicPairs = 0
	}
}

// stallNs is the unhidden part of a random row activation when the SPU has
// instrPerEntry instruction slots of independent work to overlap it with:
// the Walkers double-buffer row loads behind the 1.2 GHz sub-clock (§4.1,
// "we overlap loading a new row into the Walker and shifting"), so only the
// remainder of the 50 ns row cycle stalls the pipeline.
func (m *Machine) stallNs(instrPerEntry int64) float64 {
	if m.cfg.DisableOverlap {
		return m.cfg.Tim.RowCycleNs
	}
	s := m.cfg.Tim.RowCycleNs - float64(instrPerEntry)*m.cfg.Tim.SPUCycleNs()
	if s < 0 {
		return 0
	}
	return s
}

// refreshFactor stretches busy time for the DRAM refresh tax.
func (m *Machine) refreshFactor() float64 {
	if !m.cfg.ModelRefresh || m.cfg.TREFINs <= m.cfg.TRFCNs || m.cfg.TREFINs <= 0 {
		return 1
	}
	return 1 / (1 - m.cfg.TRFCNs/m.cfg.TREFINs)
}

// errStreamSeed derives SPU k's splitmix64 stream state from the machine
// seed. The finalizer decorrelates the per-SPU states so stream k is not a
// shifted copy of stream 0.
func errStreamSeed(seed uint64, k int) uint64 {
	z := seed ^ (uint64(k)+1)*0xBF58476D1CE4E5B9
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// corrupt injects a deterministic single-bit mantissa flip with probability
// BitErrorRate, drawing from SPU spu's private splitmix64 stream. Keeping
// one stream per SPU makes injection independent of worker sharding: only
// SPU spu's loop ever advances stream spu, always in the same order.
//
//gearbox:steadystate
func (m *Machine) corrupt(spu int, v float32) float32 {
	if m.cfg.BitErrorRate <= 0 {
		return v
	}
	m.errStates[spu] += 0x9E3779B97F4A7C15
	z := m.errStates[spu]
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	if float64(z>>11)/float64(1<<53) >= m.cfg.BitErrorRate {
		return v
	}
	m.errCounts[spu]++
	bit := uint32(1) << (z % 20) // low mantissa bits
	return math.Float32frombits(math.Float32bits(v) ^ bit)
}

// ErrorsInjected reports how many bit flips corrupt has applied.
func (m *Machine) ErrorsInjected() int64 {
	var n int64
	for _, c := range m.errCounts {
		n += c
	}
	return n
}

// replica lazily allocates SPU k's copy of the long output region, filled
// with the clean value.
func (m *Machine) replica(k int) []float32 {
	if m.replicas[k] == nil {
		rep := make([]float32, m.plan.LastLong+1)
		for i := range rep {
			rep[i] = m.clean
		}
		m.replicas[k] = rep
	}
	return m.replicas[k]
}

//gearbox:steadystate
func (m *Machine) logicDirtyAdd(r int32) { m.logicDirty = append(m.logicDirty, r) } //gearbox:alloc-ok recycled dirty list; grows to its high-water mark

//gearbox:steadystate
func maxOf(xs []float64) float64 {
	mx := 0.0
	for _, x := range xs {
		if x > mx {
			mx = x
		}
	}
	return mx
}

// busyStats fills a step's per-SPU busy distribution from m.busy.
//
//gearbox:steadystate
func (m *Machine) busyStats(s *StepStats) {
	sum := 0.0
	for _, b := range m.busy {
		sum += b
	}
	s.BusyMaxNs = maxOf(m.busy)
	s.BusyMeanNs = sum / float64(len(m.busy))
}
