package mtx

// Streaming Matrix Market ingest: ReadCSC parses a coordinate stream
// directly into a width-adaptive CSC, never materializing the entries as a
// COO. The body is scanned twice in bounded segments, both times through
// scanChunk's one entry grammar:
//
//	pass 1  validates every entry and tallies per-column entry counts into
//	        one shared []int64;
//	pass 2  re-scans, parses each segment's chunks in parallel into reused
//	        entry buffers, and places them in file order through
//	        sparse.CSCBuilder, whose Finish sums duplicates in file order and
//	        drops exact zeros.
//
// Peak memory is the final CSC plus O(cols) counts plus one segment buffer
// and per-worker chunk buffers. For seekable inputs (files) the bytes are
// never held whole; other readers are buffered once and windowed through
// the same segment loop. The result is bit-identical to
// sparse.CSCFromCOOWorkers over the file's entries at every worker count.

import (
	"bytes"
	"fmt"
	"io"

	"gearbox/internal/par"
	"gearbox/internal/sparse"
)

// streamSegBytes is the body window both passes advance by: large enough to
// amortize chunk handoffs, small enough that two in-flight segments stay
// cache- and memory-friendly.
const streamSegBytes = 8 << 20

// minChunkBytes is the smallest body span worth a parallel chunk.
const minChunkBytes = 64 << 10

// ReadCSC parses a Matrix Market coordinate stream directly into a CSC
// matrix. Symmetric and skew-symmetric inputs expand to both triangles,
// duplicates sum in file order, and exact zeros drop — the same matrix
// sparse.CSCFromCOO yields over the file's entries.
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
	outs := make([]chunkOut, pool.Workers())

	// Pass 1: validate and count.
	s, err := newBodyScanner(rs, segBytes)
	if err != nil {
		return nil, err
	}
	colCount := make([]int64, s.cols)
	seen, err := scanBody(pool, s, colCount, nil, outs)
	if err != nil {
		return nil, err
	}
	if seen != s.nnz {
		return nil, fmt.Errorf("mtx: read %d entries, header declared %d", seen, s.nnz)
	}

	// The builder makes the single O(nnz) allocation of the whole build and
	// rejects expanded totals beyond the int32 entry limit.
	//gearbox:narrow-ok parseSize rejects dimensions beyond MaxInt32
	b, err := sparse.NewCSCBuilder(int32(s.rows), int32(s.cols), colCount, o.Workers)
	if err != nil {
		return nil, err
	}

	// Pass 2: re-scan, parse chunks in parallel, place in file order.
	if _, err := rs.Seek(start, io.SeekStart); err != nil {
		return nil, fmt.Errorf("mtx: %w", err)
	}
	if s, err = newBodyScanner(rs, segBytes); err != nil {
		return nil, err
	}
	placed, err := scanBody(pool, s, nil, b, outs)
	if err != nil {
		return nil, err
	}
	if placed != seen {
		return nil, fmt.Errorf("mtx: input changed between passes: read %d entries, counted %d", placed, seen)
	}
	return b.Finish()
}

// chunkBounds splits body into whole-line chunks: one per worker, fewer
// when the body is small.
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

// scanBody runs one pass over the rest of s's body and returns the number
// of entries read. Each segment's chunks run scanChunk in parallel. The
// counting pass (colCount set, b nil) only tallies, and integer addition
// commutes, so the counts are worker-count independent. The placement pass
// (colCount nil) feeds each chunk's entries to b serially in chunk order:
// the file order, which fixes the duplicate fold order. Errors resolve in
// chunk order with ordinals counted from the body's first entry, identical
// to a serial parse.
func scanBody(pool *par.Pool, s *bodyScanner, colCount []int64, b *sparse.CSCBuilder, outs []chunkOut) (int, error) {
	region := "mtx-parse"
	if colCount != nil {
		region = "mtx-count"
	}
	seen := 0
	for {
		seg, err := s.next()
		if err == io.EOF {
			return seen, nil
		}
		if err != nil {
			return 0, err
		}
		bounds := chunkBounds(seg, pool)
		chunks := outs[:len(bounds)-1]
		pool.ForEach(region, len(chunks), func(_, k int) {
			scanChunk(seg[bounds[k]:bounds[k+1]], s.h, s.rows, s.cols, colCount, &chunks[k])
		})
		for k := range chunks {
			c := &chunks[k]
			if c.err != nil {
				return 0, fmt.Errorf("mtx: entry %d: %w", seen+c.errAt+1, c.err)
			}
			if b != nil {
				b.PlaceBatch(c.entries)
			}
			seen += c.seen
		}
	}
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
