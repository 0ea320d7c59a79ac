package partition

import (
	"slices"
	"strings"
	"testing"

	"gearbox/internal/sparse"
)

// longPlan builds a V3 plan with enough long vertices that long rows land
// in long columns, so both fragments and spills are populated.
func longPlan(t *testing.T, workers int) *Plan {
	t.Helper()
	cfg := DefaultConfig()
	cfg.LongFrac = 0.05
	cfg.Workers = workers
	p, err := Build(powerLawMatrix(t, 9, 37), smallGeo(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestLongLayoutMatchesSerialReference rebuilds the long layout the
// simplest way — scan long columns in order, entries in storage order, one
// global spill counter — and checks every column's pieces against it: same
// SPUs in ascending order, same fragment and spill entries in the same
// order. It also checks that the per-SPU views are those runs in column
// order.
func TestLongLayoutMatchesSerialReference(t *testing.T) {
	p := longPlan(t, 0)
	type run struct{ frag, spill []sparse.Entry }
	wantFrags := make([][][]sparse.Entry, p.NumSPUs)
	wantSpills := make([][][]sparse.Entry, p.NumSPUs)
	rr, spills := 0, 0
	for c := int32(0); c <= p.LastLong; c++ {
		runs := make([]run, p.NumSPUs)
		rows, vals := p.Matrix.Col(c)
		for i, r := range rows.All() {
			e := sparse.Entry{Row: r, Col: c, Val: vals[i]}
			if k := p.OwnerOf[r]; k >= 0 {
				runs[k].frag = append(runs[k].frag, e)
				continue
			}
			k := rr % p.NumSPUs
			rr++
			runs[k].spill = append(runs[k].spill, e)
		}
		var got []LongPiece
		for k, rn := range runs {
			if len(rn.frag)+len(rn.spill) == 0 {
				continue
			}
			got = append(got, LongPiece{SPU: int32(k)})
			if rn.frag != nil {
				wantFrags[k] = append(wantFrags[k], rn.frag)
			}
			if rn.spill != nil {
				wantSpills[k] = append(wantSpills[k], rn.spill)
				spills++
			}
		}
		pieces := p.LongPiecesOf(c)
		if len(pieces) != len(got) {
			t.Fatalf("column %d: %d pieces, want %d", c, len(pieces), len(got))
		}
		for i, pc := range pieces {
			rn := runs[pc.SPU]
			if pc.SPU != got[i].SPU ||
				!slices.Equal(p.LongEntries[pc.Lo:pc.Mid], rn.frag) ||
				!slices.Equal(p.LongEntries[pc.Mid:pc.Hi], rn.spill) {
				t.Fatalf("column %d piece %d (SPU %d) differs from the serial reference", c, i, pc.SPU)
			}
		}
	}
	if spills == 0 {
		t.Fatal("plan has no spill entries; raise LongFrac")
	}
	for k := 0; k < p.NumSPUs; k++ {
		if !slices.EqualFunc(p.LongFrags[k], wantFrags[k], slices.Equal) {
			t.Fatalf("SPU %d fragment views differ from the reference", k)
		}
		if !slices.EqualFunc(p.LongRowSpill[k], wantSpills[k], slices.Equal) {
			t.Fatalf("SPU %d spill views differ from the reference", k)
		}
	}
}

// TestValidateRejectsCorruptLongLayout corrupts a built plan's long layout
// in each way Validate guards against and expects the matching error.
func TestValidateRejectsCorruptLongLayout(t *testing.T) {
	// findPiece returns the first piece satisfying ok, with its column.
	findPiece := func(t *testing.T, p *Plan, ok func(c int32, i int, pcs []LongPiece) bool) (int32, int) {
		t.Helper()
		for c := int32(0); c <= p.LastLong; c++ {
			pcs := p.LongPiecesOf(c)
			for i := range pcs {
				if ok(c, i, pcs) {
					return c, int(p.LongPieceStart[c]) + i
				}
			}
		}
		t.Fatal("no piece fits the corruption")
		return 0, 0
	}
	cases := []struct {
		name    string
		corrupt func(t *testing.T, p *Plan)
		want    string
	}{
		{"pieces not ascending by SPU", func(t *testing.T, p *Plan) {
			_, j := findPiece(t, p, func(_ int32, i int, pcs []LongPiece) bool { return i+1 < len(pcs) })
			p.LongPieces[j+1].SPU = p.LongPieces[j].SPU
		}, "strictly ascending"},
		{"fragment row on a non-owner SPU", func(t *testing.T, p *Plan) {
			// Swap the first fragment entries of two pieces of one column:
			// both stay in the column, each now sits on the wrong SPU.
			_, j := findPiece(t, p, func(_ int32, i int, pcs []LongPiece) bool {
				return i+1 < len(pcs) && pcs[i].Mid > pcs[i].Lo && pcs[i+1].Mid > pcs[i+1].Lo
			})
			a, b := p.LongPieces[j].Lo, p.LongPieces[j+1].Lo
			p.LongEntries[a], p.LongEntries[b] = p.LongEntries[b], p.LongEntries[a]
		}, "owned by"},
		{"short row in a spill", func(t *testing.T, p *Plan) {
			_, j := findPiece(t, p, func(_ int32, i int, pcs []LongPiece) bool { return pcs[i].Mid > pcs[i].Lo })
			p.LongPieces[j].Mid--
		}, "is not long"},
		{"entry of another column", func(t *testing.T, p *Plan) {
			_, j := findPiece(t, p, func(int32, int, []LongPiece) bool { return true })
			p.LongEntries[p.LongPieces[j].Lo].Col++
		}, "holds an entry of column"},
		{"entry duplicated", func(t *testing.T, p *Plan) {
			_, j := findPiece(t, p, func(_ int32, i int, pcs []LongPiece) bool { return pcs[i].Mid-pcs[i].Lo >= 2 })
			lo := p.LongPieces[j].Lo
			p.LongEntries[lo+1] = p.LongEntries[lo]
		}, "more than once"},
		{"pieces stop short of the column", func(t *testing.T, p *Plan) {
			c, _ := findPiece(t, p, func(_ int32, i int, pcs []LongPiece) bool {
				return i == len(pcs)-1 && pcs[i].Hi-pcs[i].Lo >= 2
			})
			pc := &p.LongPieces[p.LongPieceStart[c+1]-1]
			pc.Hi--
			pc.Mid = min(pc.Mid, pc.Hi)
		}, "pieces end at"},
	}
	if err := longPlan(t, 1).Validate(); err != nil {
		t.Fatalf("uncorrupted plan: %v", err)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := longPlan(t, 1)
			tc.corrupt(t, p)
			err := p.Validate()
			if err == nil {
				t.Fatal("Validate accepted the corrupted layout")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate: %v, want an error containing %q", err, tc.want)
			}
		})
	}
}
