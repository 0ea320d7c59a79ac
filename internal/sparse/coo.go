// Package sparse implements the sparse-matrix formats used throughout the
// Gearbox reproduction: coordinate lists (COO), the interchange form the
// generators emit, and width-adaptive compressed sparse columns (CSC), the
// Fig. 4 layout every later stage reads. It also provides the column/row
// statistics (Fig. 5), the one CSC build (CSCBuilder), and the symmetric
// relabel (Permutation, ApplyPermutationWorkers) that Hybrid partitioning's
// long-first order runs through (§3.2); the order itself is chosen in
// internal/partition.
//
// Values are float32 to match the 4-byte memory words of the simulated stack
// (256-byte rows hold 64 words; row address = index>>6, column = index&63).
package sparse

import "fmt"

// Entry is one non-zero of a matrix in coordinate form.
type Entry struct {
	Row, Col int32
	Val      float32
}

// COO is an unordered coordinate-list matrix. It is the interchange format
// produced by the generators and consumed by the compressed builders.
type COO struct {
	NumRows, NumCols int32
	Entries          []Entry
}

// NewCOO returns an empty COO matrix with the given dimensions.
func NewCOO(rows, cols int32) *COO {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("sparse: negative dimensions %dx%d", rows, cols))
	}
	return &COO{NumRows: rows, NumCols: cols}
}

// Add appends a non-zero entry. Entries outside the matrix bounds panic:
// the generators are the only writers and must stay in range.
func (m *COO) Add(row, col int32, val float32) {
	if row < 0 || row >= m.NumRows || col < 0 || col >= m.NumCols {
		panic(fmt.Sprintf("sparse: entry (%d,%d) out of bounds %dx%d", row, col, m.NumRows, m.NumCols))
	}
	m.Entries = append(m.Entries, Entry{Row: row, Col: col, Val: val})
}

// NNZ reports the number of stored entries, duplicates included;
// CSCFromCOO merges them.
func (m *COO) NNZ() int { return len(m.Entries) }

// Clone returns a deep copy.
func (m *COO) Clone() *COO {
	c := NewCOO(m.NumRows, m.NumCols)
	c.Entries = append([]Entry(nil), m.Entries...)
	return c
}
