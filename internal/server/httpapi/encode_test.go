package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/bat"
	"repro/internal/exec"
	"repro/internal/value"
	"repro/sciql"
)

// legacyJSONValue is the cell mapping the handler used to feed
// encoding/json through [][]any: integers beyond float64 precision as
// strings — and, new with this encoder, the non-finite floats too
// (json.Marshal refuses them, which used to empty the whole body).
func legacyJSONValue(v sciql.Value) any {
	switch g := sciql.GoValue(v).(type) {
	case int64:
		const maxExact = int64(1) << 53
		if g > maxExact || g < -maxExact {
			return strconv.FormatInt(g, 10)
		}
	case float64:
		switch {
		case math.IsNaN(g):
			return "NaN"
		case math.IsInf(g, 1):
			return "Infinity"
		case math.IsInf(g, -1):
			return "-Infinity"
		}
	}
	return sciql.GoValue(v)
}

// randomVector draws an n-element column: typed storage views at an
// unaligned validity offset, or boxed values.
func randomVector(r *rand.Rand, kind, n int) bat.Vector {
	off := r.Intn(100)
	valid := make([]uint64, (off+n+63)/64)
	for i := range valid {
		valid[i] = r.Uint64() | r.Uint64()
	}
	switch kind {
	case 0:
		edge := []int64{0, -1, 1 << 53, 1<<53 + 1, -(1 << 53) - 1, math.MaxInt64, math.MinInt64}
		data := make([]int64, n)
		for i := range data {
			if data[i] = r.Int63n(1 << 30); r.Intn(3) == 0 {
				data[i] = edge[r.Intn(len(edge))]
			}
		}
		return bat.NewIntVectorValid(value.Int, data, valid, off)
	case 1:
		edge := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 5e-324, 1e21, 1e20, 1e-6, 9.9e-7, 1e-7, -1e21, 100}
		data := make([]float64, n)
		for i := range data {
			if data[i] = math.Float64frombits(r.Uint64()); r.Intn(2) == 0 {
				data[i] = edge[r.Intn(len(edge))]
			}
		}
		return bat.NewFloatVectorValid(data, valid, off)
	case 2:
		pool := []string{"", "plain", "naïve café", "日本語", "tab\there", `quote"back\slash`, "<a&b>", "\x00\xff", "line\u2028sep", "\x7f"}
		data := make([]string, n)
		for i := range data {
			data[i] = pool[r.Intn(len(pool))]
		}
		return bat.NewStringVectorValid(data, valid, off)
	case 3:
		data := make([]bool, n)
		for i := range data {
			data[i] = r.Intn(2) == 0
		}
		return bat.NewBoolVectorValid(data, valid, off)
	case 4:
		data := make([]int64, n)
		for i := range data { // years 1 to 9999: what time.Time marshals
			data[i] = r.Int63n(253402300799e6+62135596800e6) - 62135596800e6
		}
		return bat.NewIntVectorValid(value.Timestamp, data, valid, off)
	default:
		data := make([]value.Value, n)
		for i := range data {
			data[i] = []value.Value{
				value.NewNull(value.Array), value.NewArray(map[string]int{"cells": i}), {Typ: value.Unknown},
				value.NewInt(1<<53 + 1), value.NewFloat(math.NaN()), value.NewString("<s>"), value.NewBool(true),
			}[r.Intn(7)]
		}
		return bat.NewAnyVector(value.Array, data)
	}
}

// TestRowsMatchEncodingJSON: for random vectors of every column type a
// row appended from the columns is byte for byte json.Marshal of the
// row of legacyJSONValue cells — typed batches and boxed ones.
func TestRowsMatchEncodingJSON(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(200)
		typed := &exec.Batch{}
		for kind := 0; kind < 6; kind++ {
			typed.Vecs = append(typed.Vecs, randomVector(r, kind, n))
		}
		boxed := &exec.Batch{Rows: make([][]value.Value, n)}
		for i := range boxed.Rows {
			for c := range typed.Vecs {
				boxed.Rows[i] = append(boxed.Rows[i], typed.Value(c, i))
			}
		}
		for i := 0; i < n; i++ {
			cells := make([]any, len(typed.Vecs))
			for c := range cells {
				cells[c] = legacyJSONValue(typed.Value(c, i))
			}
			want, err := json.Marshal(cells)
			if err != nil {
				t.Fatal(err)
			}
			for name, b := range map[string]*exec.Batch{"typed": typed, "boxed": boxed} {
				got, err := appendRow(nil, b, i)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("seed %d, %s row %d:\n got %s\nwant %s", seed, name, i, got, want)
				}
			}
		}
	}
}

// TestBodyMatchesQueryResponse: the whole body is what json.Encoder
// writes for the QueryResponse struct — header, rows (omitted when
// there are none) and row count.
func TestBodyMatchesQueryResponse(t *testing.T) {
	db := sciql.Open()
	db.MustExec(`CREATE ARRAY m (x INTEGER DIMENSION[5], v FLOAT DEFAULT 0.0, s VARCHAR DEFAULT 'a<b')`)
	db.MustExec(`UPDATE m SET v = x / 4.0`)
	for _, q := range []string{`SELECT x, v, s FROM m`, `SELECT x, v FROM m WHERE v > 99`, `EXPLAIN SELECT v FROM m`} {
		res := db.MustQuery(q)
		want := QueryResponse{RowCount: int64(res.NumRows())}
		for r := 0; r < res.NumRows(); r++ {
			row := make([]any, res.NumCols())
			for c := range row {
				row[c] = legacyJSONValue(res.Get(r, c))
			}
			want.Rows = append(want.Rows, row)
		}
		rows, err := db.QueryContext(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		want.Columns, want.Types = rows.Columns(), rows.ColumnTypeNames()
		got, n, err := encodeResult(context.Background(), rows)
		rows.Close()
		if err != nil || n != want.RowCount {
			t.Fatalf("%s: %d rows, err %v", q, n, err)
		}
		var ref bytes.Buffer
		if err := json.NewEncoder(&ref).Encode(&want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, ref.Bytes()) {
			t.Fatalf("%s:\n got %s\nwant %s", q, got, ref.Bytes())
		}
	}
}
