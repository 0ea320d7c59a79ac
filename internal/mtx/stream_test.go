package mtx

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

// bigMTX writes a matrix large enough to split into several chunks even at
// high worker counts, with comments and blank lines sprinkled through the
// body to exercise the chunk scanner's line handling.
func bigMTX(t testing.TB, symmetry string, n int) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(n)))
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "%%%%MatrixMarket matrix coordinate real %s\n%% generated\n%d %d %d\n", symmetry, 4096, 4096, n)
	for i := 0; i < n; i++ {
		if i%1000 == 999 {
			buf.WriteString("% mid-body comment\n\n")
		}
		r, c := rng.Intn(4096)+1, rng.Intn(4096)+1
		if symmetry != "general" && c > r {
			r, c = c, r // lower triangle, as symmetric files store
		}
		fmt.Fprintf(&buf, "%d %d %g\n", r, c, float32(rng.NormFloat64()))
	}
	return buf.Bytes()
}

var symmetries = []string{"general", "symmetric", "skew-symmetric"}

// TestReadCSCMatchesCOOPath requires the serial streaming parse to equal
// the strconv reference, which collects the entries as a COO and builds
// through sparse.CSCFromCOOWorkers, bit for bit for each symmetry.
func TestReadCSCMatchesCOOPath(t *testing.T) {
	for _, symmetry := range symmetries {
		data := bigMTX(t, symmetry, 50_000)
		got, err := ReadCSCOpts(bytes.NewReader(data), Options{Workers: 1})
		if err != nil {
			t.Fatalf("%s: %v", symmetry, err)
		}
		if !bitEqual(got, mustRef(t, data)) {
			t.Fatalf("%s: differs from the strconv reference", symmetry)
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("%s: %v", symmetry, err)
		}
	}
}

// TestReadOptsWorkersEquivalent requires ReadCSCOpts' Workers option to
// leave the matrix untouched: every worker count equals the serial parse
// bit for bit, for each symmetry.
func TestReadOptsWorkersEquivalent(t *testing.T) {
	for _, symmetry := range symmetries {
		data := bigMTX(t, symmetry, 50_000)
		want, err := ReadCSCOpts(bytes.NewReader(data), Options{Workers: 1})
		if err != nil {
			t.Fatalf("%s: %v", symmetry, err)
		}
		for _, w := range []int{2, 3, 4, runtime.GOMAXPROCS(0), 0} {
			got, err := ReadCSCOpts(bytes.NewReader(data), Options{Workers: w})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", symmetry, w, err)
			}
			if !bitEqual(got, want) {
				t.Fatalf("%s workers=%d: differs from the serial parse", symmetry, w)
			}
		}
	}
}

// TestReadCSCSmallSegments forces the body through many tiny scanner windows
// so segment carry, mid-segment comments, and per-segment chunking all see
// real traffic on a fixture that fits one window in production.
func TestReadCSCSmallSegments(t *testing.T) {
	for _, symmetry := range symmetries {
		data := bigMTX(t, symmetry, 20_000)
		want := mustRef(t, data)
		for _, segBytes := range []int{1 << 10, 7 << 10, 64 << 10} {
			got, err := readCSC(bytes.NewReader(data), Options{Workers: 4}, segBytes)
			if err != nil {
				t.Fatalf("%s seg=%d: %v", symmetry, segBytes, err)
			}
			if !bitEqual(got, want) {
				t.Fatalf("%s seg=%d: differs from the strconv reference", symmetry, segBytes)
			}
		}
	}
}

// TestReadCSCTinySegmentHeader covers the scanner-growth path: a window
// smaller than the banner line must widen until the header parses.
func TestReadCSCTinySegmentHeader(t *testing.T) {
	data := []byte("%%MatrixMarket matrix coordinate real general\n% comment\n3 4 3\n1 1 2.5\n3 2 -1\n2 4 7\n")
	got, err := readCSC(bytes.NewReader(data), Options{Workers: 2}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !bitEqual(got, mustRef(t, data)) {
		t.Fatal("tiny-window parse differs from the strconv reference")
	}
}

// corruptEntry replaces line idx of a bigMTX fixture with repl and returns
// the result with repl's 1-based ordinal among the entry lines.
func corruptEntry(data []byte, idx int, repl string) ([]byte, int) {
	lines := bytes.Split(data, []byte("\n"))
	lines[idx] = []byte(repl)
	ordinal := 1
	for _, l := range lines[3:idx] { // skip banner, comment and size line
		if f := bytes.Fields(l); len(f) > 0 && f[0][0] != '%' {
			ordinal++
		}
	}
	return bytes.Join(lines, []byte("\n")), ordinal
}

// TestReadErrorsAgreeAcrossWorkers corrupts one entry deep in the body:
// every worker count and segment window must report the same error, naming
// that entry's ordinal, whether pass 1 meets it in the first segment or in
// a later one.
func TestReadErrorsAgreeAcrossWorkers(t *testing.T) {
	data, ordinal := corruptEntry(bigMTX(t, "general", 30_000), 20_000, "1 1 not-a-number")
	prefix := fmt.Sprintf("mtx: entry %d: value: ", ordinal)
	_, want := ReadCSCOpts(bytes.NewReader(data), Options{Workers: 1})
	if want == nil || !strings.HasPrefix(want.Error(), prefix) {
		t.Fatalf("serial error %q, want prefix %q", want, prefix)
	}
	for _, w := range []int{2, 4, 0} {
		_, err := ReadCSCOpts(bytes.NewReader(data), Options{Workers: w})
		if err == nil || err.Error() != want.Error() {
			t.Fatalf("workers=%d error %q, serial %q", w, err, want)
		}
	}
	for _, segBytes := range []int{1 << 10, 16 << 10} {
		_, err := readCSC(bytes.NewReader(data), Options{Workers: 4}, segBytes)
		if err == nil || err.Error() != want.Error() {
			t.Fatalf("seg=%d error %q, serial %q", segBytes, err, want)
		}
	}
}

// TestReadCSCErrorsMatchRead plants each kind of malformed entry deep in
// the body. The strconv reference read must reject it too, and ReadCSC must
// name the failing field at that entry's ordinal at every worker count and
// with the entry in a later segment.
func TestReadCSCErrorsMatchRead(t *testing.T) {
	base := bigMTX(t, "general", 30_000)
	for _, c := range []struct{ line, msg string }{
		{"1 1", "want 3 fields, got 2"},
		{"1x 1 1", "row: "},
		{"1 y 1", "col: "},
		{"1 1 zz", "value: "},
		{"4097 1 1", "index (4097,1) outside 4096x4096"},
	} {
		data, ordinal := corruptEntry(base, 20_000, c.line)
		if _, err := refCSC(data); err == nil {
			t.Fatalf("%q accepted by the reference", c.line)
		}
		prefix := fmt.Sprintf("mtx: entry %d: %s", ordinal, c.msg)
		for _, w := range []int{1, 4, 0} {
			_, err := ReadCSCOpts(bytes.NewReader(data), Options{Workers: w})
			if err == nil || !strings.HasPrefix(err.Error(), prefix) {
				t.Fatalf("%q workers=%d: error %q, want prefix %q", c.line, w, err, prefix)
			}
		}
		_, err := readCSC(bytes.NewReader(data), Options{Workers: 4}, 16<<10)
		if err == nil || !strings.HasPrefix(err.Error(), prefix) {
			t.Fatalf("%q segmented: error %q, want prefix %q", c.line, err, prefix)
		}
	}
}

// nonSeeker hides bytes.Reader's Seek so ReadCSC takes the buffered branch.
type nonSeeker struct{ r io.Reader }

func (n nonSeeker) Read(p []byte) (int, error) { return n.r.Read(p) }

func TestReadCSCNonSeekableSource(t *testing.T) {
	data := bigMTX(t, "symmetric", 10_000)
	got, err := ReadCSC(nonSeeker{bytes.NewReader(data)})
	if err != nil {
		t.Fatal(err)
	}
	if !bitEqual(got, mustRef(t, data)) {
		t.Fatal("non-seekable parse differs from the strconv reference")
	}
}

func TestReadCSCDuplicatesAndZeros(t *testing.T) {
	// Duplicates must fold in file order and exact zeros must drop.
	// 1+2-3=0 cancels (1,1); (2,2) keeps the sum 5.
	in := "%%MatrixMarket matrix coordinate real general\n3 3 5\n1 1 1\n1 1 2\n1 1 -3\n2 2 2\n2 2 3\n"
	got, err := ReadCSC(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if !bitEqual(got, mustRef(t, []byte(in))) {
		t.Fatal("duplicate and zero handling differs from the strconv reference")
	}
	if got.NNZ() != 1 || got.Values[0] != 5 {
		t.Fatalf("nnz = %d values %v, want the single sum 5 (cancelled entry kept?)", got.NNZ(), got.Values)
	}
}

func TestReadCSCRejectsOversizedHeader(t *testing.T) {
	in := "%%MatrixMarket matrix coordinate real general\n3 3 3000000000\n1 1 1\n"
	if _, err := ReadCSC(strings.NewReader(in)); err == nil {
		t.Fatal("entry count beyond int32 accepted")
	}
}

func TestReadRejectsOversizedDims(t *testing.T) {
	for _, in := range []string{
		"%%MatrixMarket matrix coordinate real general\n3000000000 3 1\n1 1 1\n",
		"%%MatrixMarket matrix coordinate real general\n3 3000000000 1\n1 1 1\n",
	} {
		if _, err := ReadCSC(strings.NewReader(in)); err == nil {
			t.Fatalf("dimensions beyond int32 accepted: %q", in[:60])
		}
	}
}

// FuzzReadCSC and FuzzRead fuzz the same contract, checkRead, from two seed
// corpora: this one around duplicates and wide headers, FuzzRead's around
// symmetry, field kinds and number syntax.
func FuzzReadCSC(f *testing.F) {
	f.Add([]byte("%%MatrixMarket matrix coordinate real general\n3 4 3\n1 1 2.5\n3 2 -1\n2 4 7\n"))
	f.Add([]byte("%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n2 1 5\n3 3 9\n"))
	f.Add([]byte("%%MatrixMarket matrix coordinate pattern skew-symmetric\n2 2 1\n2 1\n"))
	f.Add([]byte("%%MatrixMarket matrix coordinate real general\n3 3 4\n1 1 1\n1 1 -1\n2 2 2\n3 3 3\n"))
	f.Add([]byte("%%MatrixMarket matrix coordinate real general\n999999 999999 10\n1 1 1\n"))
	f.Add([]byte(""))
	f.Add([]byte("%"))
	f.Fuzz(checkRead)
}

func FuzzRead(f *testing.F) {
	f.Add([]byte("%%MatrixMarket matrix coordinate real general\n3 4 3\n1 1 2.5\n3 2 -1\n2 4 7\n"))
	f.Add([]byte("%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n2 1 5\n3 3 9\n"))
	f.Add([]byte("%%MatrixMarket matrix coordinate pattern skew-symmetric\n2 2 1\n2 1\n"))
	f.Add([]byte("%%MatrixMarket matrix coordinate integer general\n2 2 1\n1 1 1e99\n"))
	f.Add([]byte("%%MatrixMarket matrix coordinate real general\n999999999 999999999 10\n1 1 1\n"))
	f.Add([]byte(""))
	f.Add([]byte("%"))
	f.Add([]byte("%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 0x1p2\n"))
	f.Fuzz(checkRead)
}

// checkRead asserts the malformed-input contract on any byte string: the
// reader never panics; one worker, four workers and 1 KiB segments agree on
// the error text or on the matrix; and the reader fails exactly when the
// strconv reference does, matching it bit for bit when both succeed.
func checkRead(t *testing.T, data []byte) {
	// Headers declaring millions of columns make any CSC build allocate
	// gigabytes of offsets. That is inherent to the format, not a bug worth
	// minutes per exec; bound the domain.
	if _, rest, err := parseBanner(data); err == nil {
		if _, cols, _, _, err := parseSizeLine(rest); err == nil && cols > 1<<22 {
			return
		}
	}
	serial, serr := ReadCSCOpts(bytes.NewReader(data), Options{Workers: 1})
	for _, alt := range []struct {
		name     string
		workers  int
		segBytes int
	}{{"workers=4", 4, streamSegBytes}, {"workers=4 seg=1KiB", 4, 1 << 10}} {
		got, err := readCSC(bytes.NewReader(data), Options{Workers: alt.workers}, alt.segBytes)
		if (serr == nil) != (err == nil) {
			t.Fatalf("%s disagrees with serial: err %v, serial err %v", alt.name, err, serr)
		}
		if serr != nil {
			if err.Error() != serr.Error() {
				t.Fatalf("%s error %q, serial %q", alt.name, err, serr)
			}
			continue
		}
		if !bitEqual(got, serial) {
			t.Fatalf("%s matrix differs from serial", alt.name)
		}
	}
	want, werr := refCSC(data)
	if (serr == nil) != (werr == nil) {
		t.Fatalf("reference disagreement: err %v, reference err %v", serr, werr)
	}
	if serr == nil && !bitEqual(serial, want) {
		t.Fatal("matrix differs from the strconv reference")
	}
}
