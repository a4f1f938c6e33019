package pgwire

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/bat"
	"repro/internal/exec"
	"repro/internal/value"
)

// randomColumn builds an n-element column of the given kind over a
// storage-style validity bitmap read from bit offset off, so the
// vectors are the zero-copy views a scan hands out, at aligned and
// unaligned offsets. density is the share of valid (non-NULL) cells.
func randomColumn(r *rand.Rand, kind string, n, off int, density float64) bat.Vector {
	valid := make([]uint64, (off+n+63)/64)
	for i := 0; i < n; i++ {
		if r.Float64() < density {
			valid[(off+i)>>6] |= 1 << (uint(off+i) & 63)
		}
	}
	if density >= 1 {
		valid = nil // a hole-free range carries no bitmap
	}
	switch kind {
	case "int":
		edge := []int64{0, -1, 1, math.MaxInt64, math.MinInt64, 1 << 53, -(1 << 53) - 1, 1e18}
		data := make([]int64, n)
		for i := range data {
			if data[i] = r.Int63n(1<<40) - 1<<39; r.Intn(4) == 0 {
				data[i] = edge[r.Intn(len(edge))]
			}
		}
		return bat.NewIntVectorValid(value.Int, data, valid, off)
	case "timestamp":
		data := make([]int64, n)
		for i := range data { // years 1 to 9999, negative micros included
			data[i] = r.Int63n(253402300799e6+62135596800e6) - 62135596800e6
		}
		return bat.NewIntVectorValid(value.Timestamp, data, valid, off)
	case "float":
		edge := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
			math.SmallestNonzeroFloat64, 4.9e-320, 1e21, 1e-7, -1e21, math.MaxFloat64, 1e20, 123456789.125}
		data := make([]float64, n)
		for i := range data {
			switch r.Intn(4) {
			case 0:
				data[i] = edge[r.Intn(len(edge))]
			case 1:
				data[i] = float64(r.Intn(2000) - 1000)
			default:
				data[i] = math.Float64frombits(r.Uint64())
			}
		}
		return bat.NewFloatVectorValid(data, valid, off)
	case "string":
		pool := []string{"", "plain", "naïve café", "日本語", "tab\there", `quote"back\slash`, "<a&b>", "\x00\xff", "line\nbreak", " "}
		data := make([]string, n)
		for i := range data {
			data[i] = pool[r.Intn(len(pool))]
		}
		return bat.NewStringVectorValid(data, valid, off)
	case "bool":
		data := make([]bool, n)
		for i := range data {
			data[i] = r.Intn(2) == 0
		}
		return bat.NewBoolVectorValid(data, valid, off)
	default: // opaque: boxed values — nested array handles and strays
		handle := &struct{ name string }{"nested"}
		data := make([]value.Value, n)
		for i := range data {
			switch r.Intn(5) {
			case 0:
				data[i] = value.NewNull(value.Array)
			case 1:
				data[i] = value.NewArray(handle)
			case 2:
				data[i] = value.NewInt(r.Int63())
			case 3:
				data[i] = value.Value{Typ: value.Unknown}
			default:
				data[i] = value.NewFloat(math.Inf(-1))
			}
		}
		return bat.NewAnyVector(value.Array, data)
	}
}

var columnKinds = []string{"int", "timestamp", "float", "string", "bool", "opaque"}

// randomBatch builds a typed batch of n rows with one column per kind.
func randomBatch(r *rand.Rand, n int) *exec.Batch {
	density := []float64{1, 0.8, 0}[r.Intn(3)] // no NULLs, some, all-NULL
	b := &exec.Batch{}
	for _, kind := range columnKinds {
		b.Vecs = append(b.Vecs, randomColumn(r, kind, n, r.Intn(130), density))
	}
	return b
}

// referenceRows is the encoder the frame builder replaces: every cell
// boxed, rendered by EncodeText, one WriteDataRow per row.
func referenceRows(t *testing.T, cell func(col, row int) value.Value, ncols, lo, hi int) []byte {
	t.Helper()
	var out bytes.Buffer
	w := NewWriter(&out)
	for r := lo; r < hi; r++ {
		fields := make([][]byte, ncols)
		for c := range fields {
			v := cell(c, r)
			fields[c] = EncodeText(v)
			if want := printerText(v); string(fields[c]) != want && (fields[c] != nil || !v.Null) {
				t.Fatalf("EncodeText(%#v) = %q, the result printer says %q", v, fields[c], want)
			}
		}
		if err := w.WriteDataRow(fields); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// printerText is what EncodeText was before it formatted by appending:
// the in-process printer's rendering, "t"/"f" for booleans — and, the
// one deliberate change, PostgreSQL's spelling of the infinities.
func printerText(v value.Value) string {
	switch {
	case v.Null:
		return ""
	case v.Typ == value.Bool:
		return map[bool]string{true: "t", false: "f"}[v.B]
	case v.Typ == value.Float && math.IsInf(v.F, 0):
		return map[bool]string{true: "Infinity", false: "-Infinity"}[v.F > 0]
	}
	return v.String()
}

// TestDataRowsMatchEncodeText: for random vectors of every column type
// the frames WriteDataRows appends cell by cell are byte for byte the
// frames of WriteDataRow over EncodeText(vec.Get(i)) — typed batches and
// boxed ones, any row range.
func TestDataRowsMatchEncodeText(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(300)
		typed := randomBatch(r, n)
		boxed := &exec.Batch{} // the interpreter's form: every column boxed
		for c := range typed.Vecs {
			vals := make([]value.Value, n)
			for i := range vals {
				vals[i] = typed.Value(c, i)
			}
			boxed.Vecs = append(boxed.Vecs, bat.NewAnyVector(value.Unknown, vals))
		}
		lo := r.Intn(n)
		hi := lo + r.Intn(n-lo+1)
		want := referenceRows(t, typed.Value, len(typed.Vecs), lo, hi)
		for name, b := range map[string]*exec.Batch{"typed": typed, "boxed": boxed} {
			var out bytes.Buffer
			w := NewWriter(&out)
			if err := w.WriteDataRows(b, lo, hi); err != nil {
				t.Fatal(err)
			}
			w.Flush()
			if !bytes.Equal(out.Bytes(), want) {
				t.Fatalf("seed %d: %s rows [%d, %d) of %d differ from EncodeText:\n got %q\nwant %q", seed, name, lo, hi, n, out.Bytes(), want)
			}
		}
	}
}

// TestTextFormatOfNonFiniteFloats pins the one deliberate difference
// from the in-process printer: float8 travels in PostgreSQL's spelling.
func TestTextFormatOfNonFiniteFloats(t *testing.T) {
	for f, want := range map[float64]string{
		math.Inf(1): "Infinity", math.Inf(-1): "-Infinity", math.NaN(): "NaN",
		math.Copysign(0, -1): "-0", 1e21: "1e+21", 0.1: "0.1",
	} {
		if got := string(EncodeText(value.NewFloat(f))); got != want {
			t.Errorf("EncodeText(%v) = %q, want %q", f, got, want)
		}
	}
	ts := time.Date(2011, 3, 21, 10, 0, 0, 123000, time.UTC)
	if got, want := string(EncodeText(value.NewTime(ts))), value.NewTime(ts).String(); got != want {
		t.Errorf("EncodeText(timestamp) = %q, want %q", got, want)
	}
}

// TestNumericDataRowAllocatesNothing: a DataRow of numeric columns is
// formatted into the Writer's buffer with no allocation per row.
func TestNumericDataRowAllocatesNothing(t *testing.T) {
	const n = 4096
	r := rand.New(rand.NewSource(7))
	b := &exec.Batch{Vecs: []bat.Vector{
		randomColumn(r, "int", n, 3, 1), randomColumn(r, "float", n, 0, 0.9), randomColumn(r, "int", n, 64, 0.5),
	}}
	w := NewWriter(io.Discard)
	if err := w.WriteDataRows(b, 0, n); err != nil { // grows the buffer once
		t.Fatal(err)
	}
	row := 0
	allocs := testing.AllocsPerRun(n-1, func() {
		if err := w.WriteDataRows(b, row, row+1); err != nil {
			t.Fatal(err)
		}
		row++
	})
	if allocs != 0 {
		t.Fatalf("WriteDataRows allocates %v times per numeric row, want 0", allocs)
	}
}

// TestEveryFrameIsOneWrite: frames reach the stream whole — a write
// never ends inside a frame, whatever mix of messages is buffered.
func TestEveryFrameIsOneWrite(t *testing.T) {
	var sink frameSink
	w := NewWriter(&sink)
	w.WriteRowDescription([]Column{{Name: "v", OID: OIDFloat8}})
	r := rand.New(rand.NewSource(3))
	if err := w.WriteDataRows(randomBatch(r, 2000), 0, 2000); err != nil {
		t.Fatal(err)
	}
	w.WriteDataRow([][]byte{bytes.Repeat([]byte("x"), 3*flushAt), nil})
	w.WriteCommandComplete("SELECT 2001")
	w.WriteReady('I')
	if sink.err != nil {
		t.Fatal(sink.err)
	}
	if sink.writes < 3 || sink.frames != 2004 {
		t.Fatalf("%d frames in %d writes; want 2004 frames over several writes", sink.frames, sink.writes)
	}
}

// frameSink checks that every Write it receives is a whole number of
// typed frames.
type frameSink struct {
	writes, frames int
	err            error
}

func (s *frameSink) Write(p []byte) (int, error) {
	s.writes++
	rd := NewReader(bytes.NewReader(p), 0)
	for consumed := 0; consumed < len(p); {
		msg, err := rd.ReadMessage()
		if err != nil {
			s.err = fmt.Errorf("write %d of %d bytes ends inside a frame: %v", s.writes, len(p), err)
			break
		}
		consumed += 5 + len(msg.Data)
		s.frames++
	}
	return len(p), nil
}
