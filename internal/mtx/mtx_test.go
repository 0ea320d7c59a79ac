package mtx

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"gearbox/internal/sparse"
)

// refCSC is the serial reference ReadCSC must match bit for bit. It shares
// only the header parsers with the code under test: entry lines are split
// on ASCII whitespace and parsed with strconv, the entries are collected as
// a COO, and sparse.CSCFromCOOWorkers builds the CSC serially. So a bug in
// the hand-rolled tokenizer, integer or float scanner, chunking or
// segmenting shows up as a difference. Errors carry no entry ordinal; tests
// compare only whether both sides fail.
func refCSC(data []byte) (*sparse.CSC, error) {
	h, rest, err := parseBanner(data)
	if err != nil {
		return nil, err
	}
	rows, cols, nnz, body, err := parseSizeLine(rest)
	if err != nil {
		return nil, err
	}
	want := 3
	if h.pattern {
		want = 2
	}
	m := sparse.NewCOO(int32(rows), int32(cols))
	seen := 0
	for _, line := range strings.Split(string(body), "\n") {
		f := strings.FieldsFunc(line, func(r rune) bool { return strings.ContainsRune(" \t\r\v\f", r) })
		if len(f) == 0 || f[0][0] == '%' {
			continue
		}
		if len(f) < want {
			return nil, fmt.Errorf("short entry %q", line)
		}
		i, err := strconv.Atoi(f[0])
		if err != nil {
			return nil, err
		}
		j, err := strconv.Atoi(f[1])
		if err != nil {
			return nil, err
		}
		v := 1.0
		if !h.pattern {
			if v, err = strconv.ParseFloat(f[2], 32); err != nil {
				return nil, err
			}
		}
		if i < 1 || i > rows || j < 1 || j > cols {
			return nil, fmt.Errorf("index (%d,%d) outside %dx%d", i, j, rows, cols)
		}
		m.Add(int32(i-1), int32(j-1), float32(v))
		if i != j && h.sym != symGeneral {
			if h.sym == symSkew {
				v = -v
			}
			m.Add(int32(j-1), int32(i-1), float32(v))
		}
		seen++
	}
	if seen != nnz {
		return nil, fmt.Errorf("read %d entries, header declared %d", seen, nnz)
	}
	return sparse.CSCFromCOOWorkers(m, 1), nil
}

// mustRef is refCSC for inputs the reference must accept.
func mustRef(t testing.TB, data []byte) *sparse.CSC {
	t.Helper()
	c, err := refCSC(data)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// bitEqual reports whether a and b are the same matrix down to the value
// bits, so NaN payloads and signed zeros count.
func bitEqual(a, b *sparse.CSC) bool {
	if a.NumRows != b.NumRows || a.NumCols != b.NumCols || len(a.Values) != len(b.Values) ||
		!slices.Equal(a.Offsets, b.Offsets) || !slices.Equal(a.IndexesInt32(), b.IndexesInt32()) {
		return false
	}
	for i, v := range a.Values {
		if math.Float32bits(v) != math.Float32bits(b.Values[i]) {
			return false
		}
	}
	return true
}

// colOf returns column col of c as (row, value) pairs.
func colOf(c *sparse.CSC, col int32) ([]int32, []float32) {
	rows, vals := c.Col(col)
	return rows.Int32s(nil), vals
}

func TestReadGeneralReal(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real general
% a comment
3 4 3
1 1 2.5
3 2 -1
2 4 7
`
	m, err := ReadCSC(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.NumRows != 3 || m.NumCols != 4 || m.NNZ() != 3 {
		t.Fatalf("shape %dx%d nnz %d", m.NumRows, m.NumCols, m.NNZ())
	}
	if rows, vals := colOf(m, 0); len(rows) != 1 || rows[0] != 0 || vals[0] != 2.5 {
		t.Fatalf("column 0 = %v %v", rows, vals)
	}
	if rows, vals := colOf(m, 1); len(rows) != 1 || rows[0] != 2 || vals[0] != -1 {
		t.Fatalf("column 1 = %v %v", rows, vals)
	}
	if rows, vals := colOf(m, 3); len(rows) != 1 || rows[0] != 1 || vals[0] != 7 {
		t.Fatalf("column 3 = %v %v", rows, vals)
	}
}

func TestReadPattern(t *testing.T) {
	in := "%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 2\n2 1\n"
	m, err := ReadCSC(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 2 {
		t.Fatalf("nnz = %d, want 2", m.NNZ())
	}
	for _, v := range m.Values {
		if v != 1 {
			t.Fatalf("pattern value = %v, want 1", v)
		}
	}
}

func TestReadSymmetricExpands(t *testing.T) {
	in := "%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n2 1 5\n3 3 9\n"
	m, err := ReadCSC(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	// Off-diagonal entry mirrors; diagonal does not.
	if m.NNZ() != 3 {
		t.Fatalf("nnz = %d, want 3", m.NNZ())
	}
	if rows, vals := colOf(m, 1); len(rows) != 1 || rows[0] != 0 || vals[0] != 5 {
		t.Fatalf("mirrored entry missing: %v %v", rows, vals)
	}
}

func TestReadSkewSymmetricNegates(t *testing.T) {
	in := "%%MatrixMarket matrix coordinate real skew-symmetric\n3 3 1\n2 1 5\n"
	m, err := ReadCSC(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 2 {
		t.Fatalf("nnz = %d, want 2", m.NNZ())
	}
	if rows, vals := colOf(m, 0); len(rows) != 1 || rows[0] != 1 || vals[0] != 5 {
		t.Fatalf("source entry = %v %v, want (1, 5)", rows, vals)
	}
	if rows, vals := colOf(m, 1); len(rows) != 1 || rows[0] != 0 || vals[0] != -5 {
		t.Fatalf("mirror = %v %v, want (0, -5)", rows, vals)
	}
}

func TestReadRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"no banner":        "3 3 1\n1 1 1\n",
		"dense format":     "%%MatrixMarket matrix array real general\n3 3\n1\n",
		"complex field":    "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n",
		"bad symmetry":     "%%MatrixMarket matrix coordinate real hermitian\n1 1 1\n1 1 1\n",
		"missing size":     "%%MatrixMarket matrix coordinate real general\n",
		"bad size":         "%%MatrixMarket matrix coordinate real general\nx y z\n",
		"count mismatch":   "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1\n",
		"index out of rng": "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1\n",
		"short entry":      "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1\n",
		"bad value":        "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 zz\n",
		"bad row":          "%%MatrixMarket matrix coordinate real general\n2 2 1\n1x 1 1\n",
		"empty":            "",
	}
	for name, in := range cases {
		if _, err := ReadCSC(strings.NewReader(in)); err == nil {
			t.Errorf("%s accepted", name)
		}
		if _, err := refCSC([]byte(in)); err == nil {
			t.Errorf("%s accepted by the reference", name)
		}
	}
}

// roundTrip writes m's canonical form and reads it back; the result must
// be the same matrix.
func roundTrip(m *sparse.COO) error {
	want := sparse.CSCFromCOO(m)
	var buf bytes.Buffer
	if err := Write(&buf, want.ToCOO()); err != nil {
		return err
	}
	back, err := ReadCSC(&buf)
	if err != nil {
		return err
	}
	if !bitEqual(back, want) {
		return fmt.Errorf("round trip changed the matrix")
	}
	return nil
}

func TestWriteReadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := sparse.NewCOO(20, 30)
	for i := 0; i < 100; i++ {
		m.Add(rng.Int31n(20), rng.Int31n(30), float32(rng.Intn(17))-8)
	}
	if err := roundTrip(m); err != nil {
		t.Fatal(err)
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := sparse.NewCOO(1+rng.Int31n(16), 1+rng.Int31n(16))
		for i := 0; i < rng.Intn(40); i++ {
			m.Add(rng.Int31n(m.NumRows), rng.Int31n(m.NumCols), float32(rng.Intn(9))+1)
		}
		return roundTrip(m) == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestParseFloat32MatchesStrconv drives the hand-rolled fast path against
// strconv over the token shapes .mtx files contain, plus the shapes that
// must fall back (long mantissas, huge exponents, hex, inf).
func TestParseFloat32MatchesStrconv(t *testing.T) {
	fixed := []string{
		"0", "-0", "+0", "1", "-1", "3.25", "-3.25", ".5", "5.", "0.001",
		"1e0", "1e7", "1e8", "1e10", "1e17", "1e18", "-1e-10", "1e-11",
		"16777215", "16777216", "9999999", "10000001", "123456789012345678901234",
		"1.7976931348623157e308", "5e-324", "0x1p4", "inf", "-inf", "nan",
		"1_0", "6.02e23", "6.02E23", "6.02e+23", "6.02e-23", "1e1000", "1e-1000",
	}
	for _, s := range fixed {
		want, wantErr := strconv.ParseFloat(s, 32)
		got, gotErr := parseFloat32([]byte(s))
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("%q: err %v vs strconv %v", s, gotErr, wantErr)
		}
		if wantErr == nil && math.Float32bits(got) != math.Float32bits(float32(want)) {
			t.Fatalf("%q: bits %08x vs strconv %08x", s, math.Float32bits(got), math.Float32bits(float32(want)))
		}
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 100_000; i++ {
		mant := rng.Int63n(1 << 30)
		s := fmt.Sprintf("%d.%0*de%d", mant, rng.Intn(6), rng.Int63n(1000), rng.Intn(50)-25)
		if rng.Intn(2) == 0 {
			s = "-" + s
		}
		want, wantErr := strconv.ParseFloat(s, 32)
		got, gotErr := parseFloat32([]byte(s))
		if wantErr != nil || gotErr != nil {
			t.Fatalf("%q unexpectedly failed: %v %v", s, wantErr, gotErr)
		}
		if math.Float32bits(got) != math.Float32bits(float32(want)) {
			t.Fatalf("%q: bits %08x vs strconv %08x", s, math.Float32bits(got), math.Float32bits(float32(want)))
		}
	}
}

func TestAtoiTokMatchesStrconv(t *testing.T) {
	for _, s := range []string{
		"0", "-0", "+7", "123", "-123", "007", "9223372036854775807",
		"9223372036854775808", "-9223372036854775808", "12x", "", "-", "+", "1.5",
		"99999999999999999999999999",
	} {
		want, wantErr := strconv.Atoi(s)
		got, gotErr := atoiTok([]byte(s))
		if (wantErr == nil) != (gotErr == nil) || got != want {
			t.Fatalf("%q: (%d, %v) vs strconv (%d, %v)", s, got, gotErr, want, wantErr)
		}
	}
}
