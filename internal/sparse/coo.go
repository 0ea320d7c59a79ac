// Package sparse implements the sparse-matrix formats used throughout the
// Gearbox reproduction: coordinate lists (COO), compressed sparse rows (CSR),
// compressed sparse columns (CSC), and the paired CSC_Pair layout from Fig. 4
// of the paper. It also provides the column/row statistics (Fig. 5) and the
// long-column/long-row reordering that Hybrid partitioning relies on (§3.2).
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

// Transpose returns a new COO with rows and columns swapped.
func (m *COO) Transpose() *COO {
	t := NewCOO(m.NumCols, m.NumRows)
	t.Entries = make([]Entry, len(m.Entries))
	for i, e := range m.Entries {
		t.Entries[i] = Entry{Row: e.Col, Col: e.Row, Val: e.Val}
	}
	return t
}

// Clone returns a deep copy.
func (m *COO) Clone() *COO {
	c := NewCOO(m.NumRows, m.NumCols)
	c.Entries = append([]Entry(nil), m.Entries...)
	return c
}
