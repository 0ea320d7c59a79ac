// Package multistack implements the paper's §6 scaling extension, which it
// leaves as future work: "to extend the architecture for larger datasets, we
// can use multiple stacks (4-16) per device ... partition the matrix into
// several blocks, where each block is assigned to one stack ... we require
// an additional step that reduces the results of all blocks" over an
// NVLink-class all-to-all interconnect with collective operations.
//
// A Device holds S single-stack Machines, each owning a contiguous column
// block of the matrix. One device iteration runs every stack's SpMSpV over
// its block's share of the frontier in parallel, then allReduces the sparse
// partial outputs across stacks (⊕ per index) over the inter-stack links.
package multistack

import (
	"cmp"
	"fmt"
	"slices"

	"gearbox/internal/gearbox"
	"gearbox/internal/mem"
	"gearbox/internal/partition"
	"gearbox/internal/semiring"
	"gearbox/internal/sparse"
)

// Interconnect models the NVLink/NVSwitch-class device fabric of §6.
type Interconnect struct {
	// BWBytesPerNs is the per-stack injection bandwidth (NVLink3: 50 GB/s
	// per direction).
	BWBytesPerNs float64
	// LatencyNs is the per-collective base latency.
	LatencyNs float64
}

// DefaultInterconnect returns NVLink3-class numbers.
func DefaultInterconnect() Interconnect {
	return Interconnect{BWBytesPerNs: 50, LatencyNs: 2000}
}

// AllReduceNs prices an all-reduce of bytes payload per stack across s
// stacks using the standard ring-allreduce cost 2(s-1)/s x bytes / BW.
func (ic Interconnect) AllReduceNs(bytes float64, stacks int) float64 {
	if stacks <= 1 {
		return 0
	}
	return ic.LatencyNs + 2*float64(stacks-1)/float64(stacks)*bytes/ic.BWBytesPerNs
}

// Config assembles a multi-stack device.
type Config struct {
	Stacks    int
	Machine   gearbox.Config   // per-stack machine configuration
	Partition partition.Config // per-stack partitioning
	Fabric    Interconnect
}

// DefaultConfig returns a 4-stack device of Table 2 stacks.
func DefaultConfig() Config {
	return Config{
		Stacks:    4,
		Machine:   gearbox.DefaultConfig(),
		Partition: partition.DefaultConfig(),
		Fabric:    DefaultInterconnect(),
	}
}

// Device is a set of stacks jointly holding one matrix.
type Device struct {
	cfg      Config
	n        int32
	sem      semiring.Semiring
	machines []*gearbox.Machine
	// colStack[c] is the stack owning column c (contiguous blocks).
	colStack []int32
	// blockOf[s] is the half-open column range of stack s.
	blockOf []Range
}

// Range is a half-open column interval.
type Range struct{ First, Last int32 } // inclusive First, exclusive Last+1... see Contains

// Contains reports whether c falls in the range (inclusive bounds).
func (r Range) Contains(c int32) bool { return c >= r.First && c <= r.Last }

// IterStats aggregates one device iteration.
type IterStats struct {
	// PerStack holds each stack's own iteration statistics.
	PerStack []gearbox.IterStats
	// StackTimeNs is the parallel phase: max over stacks.
	StackTimeNs float64
	// ReduceTimeNs is the §6 all-reduce step.
	ReduceTimeNs float64
	// ReducedEntries counts distinct output indexes merged.
	ReducedEntries int64
}

// TimeNs is the device iteration time.
func (s IterStats) TimeNs() float64 { return s.StackTimeNs + s.ReduceTimeNs }

// New partitions the matrix into column blocks and builds one machine per
// stack. Each stack's block keeps all rows but only its columns' non-zeros,
// exactly the block scheme §6 describes.
func New(m *sparse.CSC, sem semiring.Semiring, cfg Config) (*Device, error) {
	if cfg.Stacks < 1 || cfg.Stacks > 64 {
		return nil, fmt.Errorf("multistack: %d stacks out of range [1,64]", cfg.Stacks)
	}
	if m.NumRows != m.NumCols {
		return nil, fmt.Errorf("multistack: requires a square matrix")
	}
	d := &Device{
		cfg:      cfg,
		n:        m.NumRows,
		sem:      sem,
		colStack: make([]int32, m.NumCols),
		blockOf:  make([]Range, cfg.Stacks),
	}
	per := (int64(m.NumCols) + int64(cfg.Stacks) - 1) / int64(cfg.Stacks)
	for s := 0; s < cfg.Stacks; s++ {
		first := int64(s) * per
		last := first + per - 1
		if last >= int64(m.NumCols) {
			last = int64(m.NumCols) - 1
		}
		d.blockOf[s] = Range{First: int32(first), Last: int32(last)}
	}
	for c := int32(0); c < m.NumCols; c++ {
		d.colStack[c] = int32(int64(c) / per)
	}

	for s := 0; s < cfg.Stacks; s++ {
		block := columnBlock(m, d.blockOf[s])
		plan, err := partition.Build(block, cfg.Machine.Geo, cfg.Partition)
		if err != nil {
			return nil, fmt.Errorf("multistack: stack %d: %w", s, err)
		}
		mach, err := gearbox.New(plan, sem, cfg.Machine)
		if err != nil {
			return nil, fmt.Errorf("multistack: stack %d: %w", s, err)
		}
		d.machines = append(d.machines, mach)
	}
	return d, nil
}

// columnBlock extracts the block matrix: all rows, only columns in r.
func columnBlock(m *sparse.CSC, r Range) *sparse.CSC {
	coo := sparse.NewCOO(m.NumRows, m.NumCols)
	for c := r.First; c <= r.Last; c++ {
		rows, vals := m.Col(c)
		for i, row := range rows.All() {
			coo.Entries = append(coo.Entries, sparse.Entry{Row: row, Col: c, Val: vals[i]})
		}
	}
	return sparse.CSCFromCOO(coo)
}

// Stacks reports the stack count.
func (d *Device) Stacks() int { return d.cfg.Stacks }

// Iterate runs one device-wide generalized SpMSpV: frontier entries are
// routed to the stacks owning their columns, every stack iterates in
// parallel, and the sparse partial outputs all-reduce with the semiring's ⊕.
func (d *Device) Iterate(entries []gearbox.FrontierEntry) ([]gearbox.FrontierEntry, IterStats, error) {
	st := IterStats{PerStack: make([]gearbox.IterStats, d.cfg.Stacks)}

	perStack := make([][]gearbox.FrontierEntry, d.cfg.Stacks)
	for _, e := range entries {
		if e.Index < 0 || e.Index >= d.n {
			return nil, st, fmt.Errorf("multistack: frontier index %d out of range", e.Index)
		}
		s := d.colStack[e.Index]
		perStack[s] = append(perStack[s], e)
	}

	merged := map[int32]float32{}
	var reduceBytes float64
	for s, mach := range d.machines {
		// The per-stack machine relabels internally; translate in and out.
		plan := mach.Plan()
		local := make([]gearbox.FrontierEntry, len(perStack[s]))
		for i, e := range perStack[s] {
			local[i] = gearbox.FrontierEntry{Index: plan.Perm.New[e.Index], Value: e.Value}
		}
		outs, is, err := mach.Iterate(local[:0], local, gearbox.IterateOptions{})
		if err != nil {
			return nil, st, err
		}
		st.PerStack[s] = is
		if t := is.TimeNs(); t > st.StackTimeNs {
			st.StackTimeNs = t
		}
		reduceBytes += float64(8 * len(outs))
		for _, e := range outs {
			orig := plan.Perm.Old[e.Index]
			old, ok := merged[orig]
			if !ok {
				old = d.sem.Zero()
			}
			merged[orig] = d.sem.Add(old, e.Value)
		}
	}

	st.ReduceTimeNs = d.cfg.Fabric.AllReduceNs(reduceBytes/float64(d.cfg.Stacks), d.cfg.Stacks)
	out := make([]gearbox.FrontierEntry, 0, len(merged))
	//gearbox:nondet-ok out is sorted by Index below; slot indexes are unique
	for idx, v := range merged {
		if d.sem.IsZero(v) {
			continue
		}
		out = append(out, gearbox.FrontierEntry{Index: idx, Value: v})
	}
	slices.SortFunc(out, func(a, b gearbox.FrontierEntry) int { return cmp.Compare(a.Index, b.Index) })
	st.ReducedEntries = int64(len(out))
	return out, st, nil
}

// Geometry exposes the per-stack geometry (all stacks are identical).
func (d *Device) Geometry() mem.Geometry { return d.cfg.Machine.Geo }
