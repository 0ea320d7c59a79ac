package mtx

// Streaming Matrix Market ingest: ReadCSC parses a coordinate stream
// directly into a width-adaptive CSC without materializing the intermediate
// COO that Read builds. The file is scanned twice in bounded segments:
//
//	pass 1  validates every entry (same errors, same ordinals as Read) and
//	        tallies per-column entry counts into one shared []int64;
//	pass 2  re-scans, parses each segment's chunks in parallel into reused
//	        entry buffers, and places them in file order through
//	        sparse.CSCBuilder, whose Finish applies Coalesce semantics.
//
// Peak memory is the final CSC plus O(cols) counts plus one segment buffer
// and per-worker chunk buffers — versus the COO path's entry structs held
// two to four times over (chunk outputs, the spliced COO, and the sort
// scratch inside CSCFromCOO). For seekable inputs (files) the bytes are
// never held whole; other readers are buffered once and windowed through
// the same segment loop. The result is bit-identical to
// sparse.CSCFromCOOWorkers(Read(r)) at every worker count.

import (
	"bytes"
	"fmt"
	"io"
	"sync/atomic"

	"gearbox/internal/par"
	"gearbox/internal/sparse"
)

// streamSegBytes is the body window both passes advance by: large enough to
// amortize chunk handoffs, small enough that two in-flight segments stay
// cache- and memory-friendly.
const streamSegBytes = 8 << 20

// ReadCSC parses a Matrix Market coordinate stream directly into a CSC
// matrix. Symmetric and skew-symmetric inputs expand to both triangles,
// duplicates sum in file order, and exact zeros drop — the same matrix
// sparse.CSCFromCOO(Read(r)) yields, at a fraction of the peak memory.
func ReadCSC(r io.Reader) (*sparse.CSC, error) { return ReadCSCOpts(r, Options{}) }

// ReadCSCOpts is ReadCSC with explicit options.
func ReadCSCOpts(r io.Reader, o Options) (*sparse.CSC, error) {
	return readCSC(r, o, streamSegBytes)
}

// readCSC is the implementation; tests shrink segBytes to force many
// segments through the scanner on small fixtures.
func readCSC(r io.Reader, o Options, segBytes int) (*sparse.CSC, error) {
	rs, ok := r.(io.ReadSeeker)
	if !ok {
		// Non-seekable sources are buffered once; the segment loop then
		// windows the held bytes, so parsing memory stays bounded anyway.
		data, err := io.ReadAll(r)
		if err != nil {
			return nil, fmt.Errorf("mtx: %w", err)
		}
		rs = bytes.NewReader(data)
	}
	start, err := rs.Seek(0, io.SeekCurrent)
	if err != nil {
		return nil, fmt.Errorf("mtx: %w", err)
	}
	// Size the window to the input when the end is cheaply knowable: a small
	// file should not pay for two full-width segment buffers. Only ever
	// shrinks; the scanner's growth path still handles oversized lines.
	if end, serr := rs.Seek(0, io.SeekEnd); serr == nil {
		if _, serr := rs.Seek(start, io.SeekStart); serr != nil {
			return nil, fmt.Errorf("mtx: %w", serr)
		}
		if rem := end - start + 1; rem < int64(segBytes) {
			segBytes = max(int(rem), 64)
		}
	}
	pool := par.New(o.Workers)

	// Pass 1: validate and count.
	s, err := newBodyScanner(rs, segBytes)
	if err != nil {
		return nil, err
	}
	h, rows, cols, nnz := s.h, s.rows, s.cols, s.nnz
	colCount := make([]int64, cols)
	seen := 0
	for {
		seg, err := s.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		n, err := countSegment(pool, seg, h, rows, cols, colCount, seen)
		if err != nil {
			return nil, err
		}
		seen += n
	}
	if seen != nnz {
		return nil, fmt.Errorf("mtx: read %d entries, header declared %d", seen, nnz)
	}

	// The builder makes the single O(nnz) allocation of the whole build and
	// rejects expanded totals beyond the int32 entry limit.
	//gearbox:narrow-ok parseSize rejects dimensions beyond MaxInt32
	b, err := sparse.NewCSCBuilder(int32(rows), int32(cols), colCount, o.Workers)
	if err != nil {
		return nil, err
	}

	// Pass 2: re-scan, parse chunks in parallel, place in file order.
	if _, err := rs.Seek(start, io.SeekStart); err != nil {
		return nil, fmt.Errorf("mtx: %w", err)
	}
	s2, err := newBodyScanner(rs, segBytes)
	if err != nil {
		return nil, err
	}
	outs := make([]chunkOut, pool.Workers())
	placed := 0
	for {
		seg, err := s2.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		n, err := placeSegment(pool, b, seg, h, rows, cols, outs, placed)
		if err != nil {
			return nil, err
		}
		placed += n
	}
	if placed != nnz {
		return nil, fmt.Errorf("mtx: input changed between passes: read %d entries, counted %d", placed, nnz)
	}
	return b.Finish()
}

// chunkBounds splits body into per-worker whole-line chunks, exactly as
// ReadOpts does: one chunk per worker, fewer when the body is small.
func chunkBounds(body []byte, pool *par.Pool) []int {
	nc := 0
	if len(body) > 0 {
		nc = pool.Blocks((len(body)-1)/minChunkBytes + 1)
	}
	bounds := make([]int, nc+1)
	if nc > 0 {
		bounds[nc] = len(body)
		for k := 1; k < nc; k++ {
			p := max(k*len(body)/nc, bounds[k-1])
			for p < len(body) && body[p] != '\n' {
				p++
			}
			if p < len(body) {
				p++
			}
			bounds[k] = p
		}
	}
	return bounds
}

// countSegment runs the counting pass over one body segment. Chunks parse in
// parallel; per-column tallies land in the shared colCount through atomic
// adds (integer addition commutes, so the totals are worker-count
// independent). Errors resolve in chunk order with ordinals continuing from
// seenBase, byte-identical to a serial Read of the same stream.
func countSegment(pool *par.Pool, body []byte, h header, rows, cols int, colCount []int64, seenBase int) (int, error) {
	bounds := chunkBounds(body, pool)
	nc := len(bounds) - 1
	outs := make([]chunkOut, nc)
	pool.ForEach("mtx-count", nc, func(_, k int) {
		countChunk(body[bounds[k]:bounds[k+1]], h, rows, cols, colCount, &outs[k])
	})
	seen := 0
	for k := range outs {
		if outs[k].err != nil {
			return 0, fmt.Errorf("mtx: entry %d: %w", seenBase+seen+outs[k].errAt+1, outs[k].err)
		}
		seen += outs[k].seen
	}
	return seen, nil
}

// countChunk is parseChunk's counting twin: the same scanner, the same
// validation in the same order, but instead of materializing entries it
// tallies each entry's column — and its mirror's column for symmetric and
// skew inputs — into the shared counts.
func countChunk(body []byte, h header, rows, cols int, colCount []int64, out *chunkOut) {
	want := 3
	if h.pattern {
		want = 2
	}
	seen, pos := 0, 0
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
		if !h.pattern {
			if _, err = parseFloat32(t2); err != nil {
				fail(fmt.Errorf("value: %w", err))
				return
			}
		}
		if i < 1 || i > rows || j < 1 || j > cols {
			fail(fmt.Errorf("index (%d,%d) outside %dx%d", i, j, rows, cols))
			return
		}
		atomic.AddInt64(&colCount[j-1], 1)
		if i != j && h.sym != symGeneral {
			atomic.AddInt64(&colCount[i-1], 1)
		}
		seen++
	}
	out.seen = seen
}

// placeSegment runs the placement pass over one body segment: chunks parse in
// parallel into reused buffers, then feed the builder serially in chunk order
// — the file order CSCFromCOO would have seen, which fixes the duplicate
// fold order.
func placeSegment(pool *par.Pool, b *sparse.CSCBuilder, body []byte, h header, rows, cols int, outs []chunkOut, seenBase int) (int, error) {
	bounds := chunkBounds(body, pool)
	nc := len(bounds) - 1
	for k := 0; k < nc; k++ {
		outs[k].err = nil
		outs[k].errAt = 0
		outs[k].seen = 0
	}
	pool.ForEach("mtx-parse", nc, func(_, k int) {
		parseChunk(body[bounds[k]:bounds[k+1]], h, rows, cols, &outs[k])
	})
	seen := 0
	for k := 0; k < nc; k++ {
		// Pass 1 validated these bytes; an error here means the underlying
		// reader returned different content on the second pass.
		if outs[k].err != nil {
			return 0, fmt.Errorf("mtx: entry %d: %w", seenBase+seen+outs[k].errAt+1, outs[k].err)
		}
		b.PlaceBatch(outs[k].entries)
		seen += outs[k].seen
	}
	return seen, nil
}

// bodyScanner yields the entry body of a Matrix Market stream in bounded
// whole-line segments. The constructor consumes the banner and size line;
// each next call returns a segment ending on a line boundary (the final
// segment may lack a trailing newline), valid until the following call.
type bodyScanner struct {
	r    io.Reader
	buf  []byte
	used int // valid bytes at buf[:used]
	seg  int // length of the last returned segment (a prefix of buf)
	eof  bool

	h               header
	rows, cols, nnz int
}

func newBodyScanner(r io.Reader, segBytes int) (*bodyScanner, error) {
	s := &bodyScanner{r: r, buf: make([]byte, segBytes)}
	for {
		if err := s.fill(); err != nil {
			return nil, err
		}
		// Only hand complete lines to the header parsers; a size line cut
		// mid-number must wait for the rest of it.
		data := s.buf[:s.used]
		if !s.eof {
			if cut := bytes.LastIndexByte(data, '\n'); cut >= 0 {
				data = data[:cut+1]
			} else {
				data = nil
			}
		}
		h, rest, err := parseBanner(data)
		if err == nil {
			var body []byte
			s.rows, s.cols, s.nnz, body, err = parseSizeLine(rest)
			if err == nil {
				s.h = h
				// body aliases data; everything from its start through used
				// (including any partial tail line) is entry bytes.
				s.seg = len(data) - len(body)
				return s, nil
			}
		}
		if s.eof {
			return nil, err
		}
		// Header incomplete in this window (long banner, many comment
		// lines): widen and retry. Doubling keeps refills logarithmic.
		s.grow()
	}
}

// next returns the following body segment, or io.EOF when the stream is
// exhausted.
func (s *bodyScanner) next() ([]byte, error) {
	copy(s.buf, s.buf[s.seg:s.used])
	s.used -= s.seg
	s.seg = 0
	for {
		if err := s.fill(); err != nil {
			return nil, err
		}
		if s.used == 0 {
			return nil, io.EOF
		}
		if cut := bytes.LastIndexByte(s.buf[:s.used], '\n'); cut >= 0 {
			s.seg = cut + 1
			return s.buf[:s.seg], nil
		}
		if s.eof {
			s.seg = s.used
			return s.buf[:s.seg], nil
		}
		// One line longer than the whole window; widen until it fits.
		s.grow()
	}
}

// fill tops the buffer up from the reader, setting eof at stream end.
func (s *bodyScanner) fill() error {
	if s.eof || s.used == len(s.buf) {
		return nil
	}
	n, err := io.ReadFull(s.r, s.buf[s.used:])
	s.used += n
	switch err {
	case nil, io.EOF, io.ErrUnexpectedEOF:
		if err != nil {
			s.eof = true
		}
		return nil
	default:
		return fmt.Errorf("mtx: %w", err)
	}
}

func (s *bodyScanner) grow() {
	nb := make([]byte, 2*len(s.buf))
	copy(nb, s.buf[:s.used])
	s.buf = nb
}
