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

	"gearbox/internal/fulcrum"
	"gearbox/internal/interconnect"
	"gearbox/internal/mem"
	"gearbox/internal/par"
	"gearbox/internal/partition"
	"gearbox/internal/semiring"
	"gearbox/internal/telemetry"
)

// FrontierEntry is one non-zero of the sparse input vector, in the plan's
// relabeled index space.
type FrontierEntry struct {
	Index int32
	Value float32
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
	// keyed by (ErrorSeed, SPU index), so injection is reproducible.
	BitErrorRate float64
	ErrorSeed    uint64
	// Deprecated: Workers is ignored; Iterate runs every step on the
	// calling goroutine. The field is kept only because the benchmark
	// harness under perfbench/ still sets it; it goes away with the next
	// change to that benchmark.
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
	op   semOp // sem resolved for the hot loops (algebra.go)
	cfg  Config
	net  *interconnect.Network
	pool *par.Pool // one idle worker; see Pool

	// nowNs is the simulated clock: the §5 steps run back to back, so it is
	// the running sum of step times. trace, when non-nil, sees each step's
	// name and completion time (see SetTrace).
	nowNs float64
	trace func(name string, atNs float64)

	clean  float32
	output []float32 // dense output vector, relabeled index space

	// Per-SPU replicated long-output regions (GearboxV3, Fig. 7b).
	replicas [][]float32
	// Logic-layer accumulator for long outputs (V2 sends, V3 reduction) and
	// the list of slots that turned non-clean this iteration.
	logicAcc   []float32
	logicDirty []int32

	// Per-SPU error-injection stream states (splitmix64) and flip counts.
	// SPU k always draws the same sequence, in its own accumulation order.
	errStates []uint64
	errCounts []int64

	// Scratch reused across iterations.
	busy []float64
	// Step 1's split of the input frontier by residence: fLong holds the
	// long-column activators, fShort the other entries grouped by owner
	// SPU, SPU k's at fShort[fStart[k]:fStart[k+1]]. Both keep the caller's
	// order (distribute).
	fLong  []FrontierEntry
	fShort []FrontierEntry
	fStart []int
	// dirtyBits has one bit per output slot, set when the slot may have
	// turned non-clean this iteration; step 6 walks it in ascending order
	// and clears it as it goes.
	dirtyBits []uint64
	dirtyLong [][]int32 // newly non-clean replica slots per SPU (V3)
	// longWork[k] is SPU k's step 3 worklist: the LongEntries ranges of the
	// long pieces this iteration's frontier activates on SPU k, in frontier
	// order (buildLongWork).
	longWork [][]longItem
	// dispKey/dispVal is step 3's one dispatcher stream, in (ascending
	// source SPU, emission order): local clean-indicator pairs and remote
	// accumulations. A key packs dst<<32 | uint32(enc), where enc is the
	// row index for a remote accumulation and ^row (negative) for a
	// clean-indicator pair; clean pairs carry value 0. Step 5 folds it.
	dispKey []uint64
	dispVal []float32
	// logicIdx/logicVal are the contributions bound for shared logic-layer
	// state (V2 long sends; in HypoGearboxV2, every accumulation), in the
	// same order; step 3 folds them once every SPU has computed.
	logicIdx []int32
	logicVal []float32
	scr      scratch // pooled per-iteration accounting buffers

	// Plan facts cached at New so the step loops read fields instead of
	// recomputing per call.
	hypo      bool    // HypoLogicLayer scheme
	replicate bool    // V3 replicated long region
	cyc       float64 // SPU cycle time in ns
	bankOf    []int32 // flat bank id per compute-SPU index

	instrCosts costs

	// Spatial telemetry: nil means disabled (the hot path pays one nil check
	// per step). The tel* arrays are SPU-indexed step-3 accumulation counts,
	// rewritten each iteration by step3SPU only while a sink is attached;
	// iterCount numbers BeginIteration callbacks across the machine's life.
	tel                         telemetry.Sink
	telLocal, telRemote, telLng []int64
	iterCount                   int
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
		op:         resolveOp(sem),
		cfg:        cfg,
		net:        net,
		pool:       par.New(1),
		clean:      sem.Zero(),
		output:     make([]float32, n),
		busy:       make([]float64, plan.NumSPUs),
		fStart:     make([]int, plan.NumSPUs+1),
		dirtyBits:  make([]uint64, (n+63)/64),
		dirtyLong:  make([][]int32, plan.NumSPUs),
		longWork:   make([][]longItem, plan.NumSPUs),
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

// stepNames are the §5 phase names on the machine's trace timeline, in order.
var stepNames = [6]string{
	"step1-frontier-distribution",
	"step2-offset-packing",
	"step3-local-accumulations",
	"step4-dispatching",
	"step5-remote-accumulations",
	"step6-applying",
}

// Iterate runs one generalized SpMSpV iteration: Output = Matrix ⊗ in over
// the machine's semiring. It appends the next frontier (the sparse form of
// the output vector) to dst in ascending index order and returns the
// extended slice with the iteration's statistics. The output vector is
// reset to clean afterwards, as Step 6 prescribes.
//
// in holds relabeled indexes in any order, duplicates allowed; each SPU
// folds its entries in the order given. An out-of-range index is an error
// before any machine state changes. Step 1 consumes in before anything is
// appended, so dst may share in's backing array (dst = in[:0] reuses one
// buffer for both), and the machine keeps no reference to either slice.
// With dst reused across iterations, steady-state Iterate allocates
// nothing.
//
//gearbox:steadystate
func (m *Machine) Iterate(dst, in []FrontierEntry, opts IterateOptions) ([]FrontierEntry, IterStats, error) {
	if opts.Apply != nil && int32(len(opts.Apply.Y)) != m.plan.Matrix.NumRows {
		return nil, IterStats{}, fmt.Errorf("gearbox: apply vector length %d, want %d", len(opts.Apply.Y), m.plan.Matrix.NumRows) //gearbox:alloc-ok cold path: caller misuse aborts the iteration
	}
	n := m.plan.Matrix.NumRows
	for _, e := range in {
		if e.Index < 0 || e.Index >= n {
			return nil, IterStats{}, fmt.Errorf("gearbox: frontier index %d out of range", e.Index) //gearbox:alloc-ok cold path: an invalid frontier aborts the run
		}
	}

	// The six §5 steps each compute functionally, then advance the clock by
	// their duration, so trace subscribers see the phase timeline.
	var st IterStats
	if m.tel != nil {
		m.tel.BeginIteration(m.iterCount, m.nowNs, int64(len(in)))
	}
	m.step1FrontierDistribution(in, &st)
	m.endStep(1, &st)
	m.step2OffsetPacking(&st)
	m.endStep(2, &st)
	m.step3LocalAccumulations(&st)
	m.endStep(3, &st)
	m.step4Dispatching(&st)
	m.endStep(4, &st)
	m.step5RemoteAccumulations(&st)
	m.endStep(5, &st)
	dst = m.step6Applying(dst, opts.Apply, &st)
	m.endStep(6, &st)
	m.iterCount++
	if m.tel != nil {
		m.tel.EndIteration(m.nowNs, st.FrontierOut)
	}
	return dst, st, nil
}

// endStep plays step (1-based) on the clock and feeds the telemetry sink.
//
//gearbox:steadystate
func (m *Machine) endStep(step int, st *IterStats) {
	m.advance(stepNames[step-1], st.Steps[step-1].TimeNs)
	if m.tel != nil {
		m.stepTelemetry(step)
	}
}

// advance moves the simulated clock dtNs forward and reports the step to the
// trace hook. A negative or non-finite step panics: it would silently corrupt
// the timeline.
//
//gearbox:steadystate
func (m *Machine) advance(name string, dtNs float64) {
	at := m.nowNs + dtNs
	if at < m.nowNs {
		panic(fmt.Sprintf("gearbox: step %q ends at %v before now %v", name, at, m.nowNs)) //gearbox:alloc-ok cold path: feeds a panic
	}
	if math.IsNaN(at) || math.IsInf(at, 0) {
		panic(fmt.Sprintf("gearbox: non-finite time %v for step %q", at, name)) //gearbox:alloc-ok cold path: feeds a panic
	}
	m.nowNs = at
	if m.trace != nil {
		m.trace(name, at)
	}
}

// SetTrace subscribes to the machine's phase timeline: fn receives each step
// name and its completion time on the simulated clock.
func (m *Machine) SetTrace(fn func(name string, atNs float64)) { m.trace = fn }

// SetTelemetry attaches a spatial telemetry sink (nil detaches). The sink
// receives per-SPU, per-link and per-bank counters after every step; see
// internal/telemetry for the callback contract. All callbacks run on the
// goroutine driving Iterate. A steady-state-safe sink (telemetry.SpatialStats)
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

// Pool returns the machine's one-worker pool, the same one on every call.
// No step runs on it, so its instrumented stats (par.Pool.SetInstrumented)
// stay at zero; it is kept for callers that still read them.
func (m *Machine) Pool() *par.Pool { return m.pool }

// ResetForRun returns a used machine to its just-built state, so a pooled
// machine can run another application without re-partitioning or
// reallocating its scratch. Passing a non-nil semiring also swaps the algebra (the
// clean value and the resolved op code follow it), letting one machine serve
// apps over different semirings. After the reset the machine is
// observationally identical to a freshly built one: the simulated clock is
// back at zero, the output vector, long-region accumulator and every replica
// hold the clean value, the dirty bitmap is clear, the
// error-injection streams are re-seeded to their initial states and the flip
// counters are zero, the interconnect counters are clear, iteration
// numbering restarts, and the trace and telemetry subscribers are detached
// (reattach them afterwards, as on a fresh build). A fresh-build-vs-reset
// equivalence suite pins that a run after ResetForRun is bit-identical —
// results, statistics and telemetry — to the same run on a fresh machine.
//
// All scratch allocations survive, which is the point: the second run
// reuses the first run's high-water buffers.
func (m *Machine) ResetForRun(sem semiring.Semiring) {
	if sem != nil {
		m.sem = sem
	}
	m.op = resolveOp(m.sem)
	m.clean = m.sem.Zero()

	m.nowNs = 0
	m.trace = nil
	m.net.Reset()
	m.tel = nil

	for i := range m.output {
		m.output[i] = m.clean
	}
	for i := range m.logicAcc {
		m.logicAcc[i] = m.clean
	}
	m.logicDirty = m.logicDirty[:0]
	clear(m.dirtyBits)
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
}

// stepTelemetry feeds the sink after step (1-based) has played on the
// simulated clock. It runs between steps, so the per-step state it reads —
// m.busy, the interconnect's per-link counters (reset at the start of each
// network-touching step), the dispatcher accounting arrays — still holds
// exactly what the step left behind.
//
//gearbox:steadystate
func (m *Machine) stepTelemetry(step int) {
	now := m.nowNs
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
func (m *Machine) NowNs() float64 { return m.nowNs }

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
		m.dirtyLong[k] = m.dirtyLong[k][:0]
		m.longWork[k] = m.longWork[k][:0]
	}
	m.dispKey, m.dispVal = m.dispKey[:0], m.dispVal[:0]
	m.logicIdx, m.logicVal = m.logicIdx[:0], m.logicVal[:0]
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
// BitErrorRate, drawing from SPU spu's private splitmix64 stream: only SPU
// spu's loop ever advances stream spu, always in the same order.
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

// markDirty records that output slot r may have turned non-clean.
//
//gearbox:steadystate
func (m *Machine) markDirty(r int32) { m.dirtyBits[r>>6] |= 1 << (uint32(r) & 63) }

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
