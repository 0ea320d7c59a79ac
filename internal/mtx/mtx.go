// Package mtx reads and writes Matrix Market coordinate files, the format
// the SuiteSparse collection distributes (§7.1's datasets). The reproduction
// ships synthetic stand-ins, but users with the original .mtx files can load
// them directly:
//
//	f, _ := os.Open("hollywood-2009.mtx")
//	m, _ := mtx.ReadCSC(f)
//	sys, _ := gearbox.NewSystem(m, ...)
//
// Supported: "matrix coordinate" with real/integer/pattern fields and
// general/symmetric/skew-symmetric symmetry. Complex matrices and dense
// ("array") layouts are rejected.
//
// ReadCSC is the one reader: it streams the entry body straight into a CSC
// (stream.go). Parsing is parallel: each body segment splits into
// per-worker chunks on line boundaries, every chunk runs the same
// hand-rolled entry scanner (no per-line or per-token allocation), and the
// chunk results combine in chunk order — so the matrix, and every error, is
// identical to a serial parse at any worker count.
package mtx

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
	"sync/atomic"

	"gearbox/internal/sparse"
)

// Options controls a ReadCSC.
type Options struct {
	// Workers sizes the parsing pool: 0 selects GOMAXPROCS, 1 forces the
	// serial path. The parsed matrix is identical at every worker count.
	Workers int
}

// symmetry is the banner's symmetry entry, pre-decoded for the entry loop.
type symmetry int

const (
	symGeneral symmetry = iota
	symSymmetric
	symSkew
)

// header captures the banner line.
type header struct {
	object, format, field string
	pattern               bool
	sym                   symmetry
}

func parseBanner(data []byte) (header, []byte, error) {
	if len(data) == 0 {
		return header{}, nil, fmt.Errorf("mtx: empty input")
	}
	line := data
	var rest []byte
	if le := bytes.IndexByte(data, '\n'); le >= 0 {
		line, rest = data[:le], data[le+1:]
	}
	f := bytes.Fields(bytes.ToLower(line))
	if len(f) < 5 || string(f[0]) != "%%matrixmarket" {
		return header{}, nil, fmt.Errorf("mtx: missing %%%%MatrixMarket banner")
	}
	h := header{object: string(f[1]), format: string(f[2]), field: string(f[3])}
	if h.object != "matrix" {
		return h, nil, fmt.Errorf("mtx: unsupported object %q", h.object)
	}
	if h.format != "coordinate" {
		return h, nil, fmt.Errorf("mtx: unsupported format %q (only coordinate)", h.format)
	}
	switch h.field {
	case "real", "integer":
	case "pattern":
		h.pattern = true
	default:
		return h, nil, fmt.Errorf("mtx: unsupported field %q", h.field)
	}
	switch string(f[4]) {
	case "general":
		h.sym = symGeneral
	case "symmetric":
		h.sym = symSymmetric
	case "skew-symmetric":
		h.sym = symSkew
	default:
		return h, nil, fmt.Errorf("mtx: unsupported symmetry %q", string(f[4]))
	}
	return h, rest, nil
}

func parseSizeLine(data []byte) (rows, cols, nnz int, body []byte, err error) {
	for len(data) > 0 {
		line := data
		if le := bytes.IndexByte(data, '\n'); le >= 0 {
			line, data = data[:le], data[le+1:]
		} else {
			data = nil
		}
		trimmed := bytes.TrimSpace(line)
		if len(trimmed) == 0 || trimmed[0] == '%' {
			continue
		}
		f := bytes.Fields(trimmed)
		if len(f) != 3 {
			return 0, 0, 0, nil, fmt.Errorf("mtx: malformed size line %q", trimmed)
		}
		r, err1 := atoiTok(f[0])
		c, err2 := atoiTok(f[1])
		n, err3 := atoiTok(f[2])
		// Dimensions beyond int32 cannot index a COO, and entry counts beyond
		// int32 cannot index any downstream structure; reject both here so a
		// hostile header errors instead of wrapping into negative sizes.
		if err1 != nil || err2 != nil || err3 != nil || r < 0 || c < 0 || n < 0 ||
			r > math.MaxInt32 || c > math.MaxInt32 || n > math.MaxInt32 {
			return 0, 0, 0, nil, fmt.Errorf("mtx: malformed size line %q", trimmed)
		}
		return r, c, n, data, nil
	}
	return 0, 0, 0, nil, fmt.Errorf("mtx: missing size line")
}

// chunkOut is one chunk's scan result. err, when set, is the inner entry
// error; errAt is the number of entries the chunk had read before it.
type chunkOut struct {
	entries []sparse.Entry
	seen    int
	errAt   int
	err     error
}

// scanChunk is the package's one entry grammar: it scans a whole-lines span
// of the entry body, validating every entry in file order, so each entry
// error is produced here and both ReadCSC passes report it at the same
// ordinal. With colCount set (the counting pass) it tallies each entry's
// column, and its mirror's column for symmetric and skew inputs, through
// atomic adds. With colCount nil (the placement pass) it appends the
// entries to out.entries instead, each mirror right after its source entry,
// so concatenating chunks in order reproduces the serial entry sequence.
func scanChunk(body []byte, h header, rows, cols int, colCount []int64, out *chunkOut) {
	// The placement pass recycles chunk outputs across segments; keep the
	// grown buffer when one is handed back in. Otherwise guess: entry lines
	// are rarely shorter than ~12 bytes; mirrors double symmetric/skew
	// chunks. A miss only costs append growth.
	entries := out.entries[:0]
	if colCount == nil && cap(entries) == 0 {
		est := len(body)/12 + 4
		if h.sym != symGeneral {
			est *= 2
		}
		entries = make([]sparse.Entry, 0, est)
	}
	want := 3
	if h.pattern {
		want = 2
	}
	seen, pos := 0, 0
	*out = chunkOut{entries: entries}
	fail := func(err error) {
		out.err = err
		out.errAt = seen
	}
	for pos < len(body) {
		le := pos
		for le < len(body) && body[le] != '\n' {
			le++
		}
		line := body[pos:le]
		pos = le + 1
		lp := 0
		t0 := nextTok(line, &lp)
		if t0 == nil || t0[0] == '%' {
			continue
		}
		t1 := nextTok(line, &lp)
		var t2 []byte
		if !h.pattern {
			t2 = nextTok(line, &lp)
		}
		if t1 == nil || (!h.pattern && t2 == nil) {
			fail(fmt.Errorf("want %d fields, got %d", want, countFields(line)))
			return
		}
		i, err := atoiTok(t0)
		if err != nil {
			fail(fmt.Errorf("row: %w", err))
			return
		}
		j, err := atoiTok(t1)
		if err != nil {
			fail(fmt.Errorf("col: %w", err))
			return
		}
		v := float32(1)
		if !h.pattern {
			if v, err = parseFloat32(t2); err != nil {
				fail(fmt.Errorf("value: %w", err))
				return
			}
		}
		if i < 1 || i > rows || j < 1 || j > cols {
			fail(fmt.Errorf("index (%d,%d) outside %dx%d", i, j, rows, cols))
			return
		}
		mirror := i != j && h.sym != symGeneral
		if colCount != nil {
			atomic.AddInt64(&colCount[j-1], 1)
			if mirror {
				atomic.AddInt64(&colCount[i-1], 1)
			}
		} else {
			//gearbox:narrow-ok the bounds check above pins i,j inside rows x cols, which parseSize capped at MaxInt32
			entries = append(entries, sparse.Entry{Row: int32(i - 1), Col: int32(j - 1), Val: v})
			if mirror {
				if h.sym == symSkew {
					v = -v
				}
				//gearbox:narrow-ok mirror of the bounds-checked entry above
				entries = append(entries, sparse.Entry{Row: int32(j - 1), Col: int32(i - 1), Val: v})
			}
		}
		seen++
	}
	out.entries = entries
	out.seen = seen
}

func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f'
}

// nextTok returns the next space-delimited token of line starting at *p,
// advancing *p past it; nil at end of line. The returned slice aliases line.
func nextTok(line []byte, p *int) []byte {
	i := *p
	for i < len(line) && isSpace(line[i]) {
		i++
	}
	if i == len(line) {
		*p = i
		return nil
	}
	j := i
	for j < len(line) && !isSpace(line[j]) {
		j++
	}
	*p = j
	return line[i:j]
}

func countFields(line []byte) int {
	n, p := 0, 0
	for nextTok(line, &p) != nil {
		n++
	}
	return n
}

// atoiTok is strconv.Atoi without the string conversion on the fast path.
// Out-of-grammar or long tokens fall back to Atoi itself, so every token
// parses — or errors — exactly as Atoi would.
func atoiTok(tok []byte) (int, error) {
	if n, ok := parseIntFast(tok); ok {
		return n, nil
	}
	return strconv.Atoi(string(tok))
}

func parseIntFast(tok []byte) (int, bool) {
	i, neg := 0, false
	if len(tok) > 0 && (tok[0] == '+' || tok[0] == '-') {
		neg = tok[0] == '-'
		i = 1
	}
	// 18 digits can never overflow int64; longer tokens take the slow path.
	if i == len(tok) || len(tok)-i > 18 {
		return 0, false
	}
	n := 0
	for ; i < len(tok); i++ {
		c := tok[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	if neg {
		n = -n
	}
	return n, true
}

// parseFloat32 parses tok exactly as strconv.ParseFloat(tok, 32) would,
// without the string conversion on the common path: when the decimal is
// short enough for strconv's own exact float32 path, compute it with the
// same single-rounding operation sequence; everything else (hex floats,
// inf/nan, underscores, long mantissas, extreme exponents, syntax errors)
// falls back to strconv, so fast and slow paths agree bit for bit.
func parseFloat32(tok []byte) (float32, error) {
	if mantissa, exp, neg, ok := readFloatExact(tok); ok {
		if f, ok := atof32exact(mantissa, exp, neg); ok {
			return f, nil
		}
	}
	f, err := strconv.ParseFloat(string(tok), 32)
	return float32(f), err
}

// readFloatExact scans [sign] digits [. digits] [(e|E) [sign] digits],
// reproducing the (mantissa, decimal exponent) extraction of strconv's
// readFloat. ok is false for anything else — more than 19 significant
// digits, leftover bytes, no digits — leaving those tokens to strconv.
func readFloatExact(tok []byte) (mantissa uint64, exp int, neg, ok bool) {
	i := 0
	if i < len(tok) && (tok[i] == '+' || tok[i] == '-') {
		neg = tok[i] == '-'
		i++
	}
	sawdot, sawdigits := false, false
	nd, ndMant, dp := 0, 0, 0
loop:
	for ; i < len(tok); i++ {
		switch c := tok[i]; {
		case c == '.':
			if sawdot {
				return 0, 0, false, false
			}
			sawdot = true
			dp = nd
		case '0' <= c && c <= '9':
			sawdigits = true
			if c == '0' && nd == 0 { // leading zeros shift the point only
				dp--
				continue
			}
			nd++
			if ndMant >= 19 {
				return 0, 0, false, false
			}
			mantissa = mantissa*10 + uint64(c-'0')
			ndMant++
		default:
			break loop
		}
	}
	if !sawdigits {
		return 0, 0, false, false
	}
	if !sawdot {
		dp = nd
	}
	if i < len(tok) && (tok[i] == 'e' || tok[i] == 'E') {
		i++
		esign := 1
		if i < len(tok) && (tok[i] == '+' || tok[i] == '-') {
			if tok[i] == '-' {
				esign = -1
			}
			i++
		}
		if i == len(tok) || tok[i] < '0' || tok[i] > '9' {
			return 0, 0, false, false
		}
		e := 0
		for ; i < len(tok) && '0' <= tok[i] && tok[i] <= '9'; i++ {
			if e < 10000 { // cap like strconv: beyond this only the sign matters
				e = e*10 + int(tok[i]-'0')
			}
		}
		dp += e * esign
	}
	if i != len(tok) {
		return 0, 0, false, false
	}
	if mantissa != 0 {
		exp = dp - ndMant
	}
	return mantissa, exp, neg, true
}

// float32pow10 holds the powers of ten exactly representable in float32.
var float32pow10 = [...]float32{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10}

// atof32exact mirrors strconv's function of the same name: a mantissa that
// fits the 23-bit significand combined with an exactly-representable power
// of ten rounds once, landing on the same bits strconv produces.
func atof32exact(mantissa uint64, exp int, neg bool) (float32, bool) {
	if mantissa>>23 != 0 {
		return 0, false
	}
	f := float32(mantissa)
	if neg {
		f = -f
	}
	switch {
	case exp == 0:
		return f, true
	case exp > 0 && exp <= 7+10: // int * 10^k is exact up to 10^17's digits
		if exp > 10 {
			f *= float32pow10[exp-10]
			exp = 10
		}
		if f > 1e7 || f < -1e7 { // the exponent was really too large
			return 0, false
		}
		return f * float32pow10[exp], true
	case exp < 0 && exp >= -10:
		return f / float32pow10[-exp], true
	}
	return 0, false
}

// Write emits a COO matrix as "matrix coordinate real general".
func Write(w io.Writer, m *sparse.COO) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate real general\n"); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(bw, "%d %d %d\n", m.NumRows, m.NumCols, len(m.Entries)); err != nil {
		return err
	}
	for _, e := range m.Entries {
		if _, err := fmt.Fprintf(bw, "%d %d %g\n", e.Row+1, e.Col+1, e.Val); err != nil {
			return err
		}
	}
	return bw.Flush()
}
