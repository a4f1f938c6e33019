package httpapi

import (
	"context"
	"encoding/json"
	"math"
	"strconv"

	"repro/internal/bat"
	"repro/internal/exec"
	"repro/internal/value"
	"repro/sciql"
)

// This file builds the success body of a query straight from the
// cursor's column batches: typed slots are appended with strconv into
// one buffer, never boxed into [][]any for reflection to walk. The
// bytes are what json.Encoder produces for a QueryResponse whose rows
// hold sciql.GoValue of every cell — except for the cells a JSON number
// cannot carry (appendInt, appendFloat).

// encodeBatchRows caps the rows encoded between two polls of the
// request context.
const encodeBatchRows = 4096

// encodeResult drains rows into a complete response body and reports
// the row count. The body is finished before anything is sent, so an
// error — the cursor's, a cancel, a cell JSON cannot carry — still
// chooses the status line.
func encodeResult(ctx context.Context, rows *sciql.Rows) ([]byte, int64, error) {
	buf := append(make([]byte, 0, 4096), '{')
	var err error
	if cols := rows.Columns(); len(cols) > 0 { // omitempty, like the struct tags
		buf = append(buf, `"columns":`...)
		if buf, err = appendJSON(buf, cols); err != nil {
			return nil, 0, err
		}
		buf = append(buf, `,"types":`...)
		if buf, err = appendJSON(buf, rows.ColumnTypeNames()); err != nil {
			return nil, 0, err
		}
		buf = append(buf, ',')
	}
	var n int64
	for rows.Next() {
		if err := ctx.Err(); err != nil {
			return nil, n, err
		}
		b, lo, hi := rows.Batch(encodeBatchRows)
		for r := lo; r < hi; r++ {
			if n == 0 {
				buf = append(buf, `"rows":[`...)
			} else {
				buf = append(buf, ',')
			}
			if buf, err = appendRow(buf, b, r); err != nil {
				return nil, n, err
			}
			n++
		}
	}
	if err := rows.Err(); err != nil {
		return nil, n, err
	}
	if n > 0 {
		buf = append(buf, `],`...)
	}
	buf = append(buf, `"rowCount":`...)
	buf = strconv.AppendInt(buf, n, 10)
	return append(buf, '}', '\n'), n, nil
}

// appendRow appends row r of b as a JSON array.
func appendRow(buf []byte, b *exec.Batch, r int) ([]byte, error) {
	buf = append(buf, '[')
	var err error
	if vecs := b.Vecs; vecs != nil {
		for c, vec := range vecs {
			if c > 0 {
				buf = append(buf, ',')
			}
			if buf, err = appendSlot(buf, vec, r); err != nil {
				return nil, err
			}
		}
	} else {
		for c, v := range b.Rows[r] {
			if c > 0 {
				buf = append(buf, ',')
			}
			if buf, err = appendValue(buf, v); err != nil {
				return nil, err
			}
		}
	}
	return append(buf, ']'), nil
}

// appendSlot appends element i of a column.
func appendSlot(buf []byte, vec bat.Vector, i int) ([]byte, error) {
	if vec.IsNull(i) {
		return append(buf, "null"...), nil
	}
	switch v := vec.(type) {
	case *bat.IntVector:
		if v.Type() == value.Int {
			return appendInt(buf, v.Ints()[i]), nil
		}
	case *bat.FloatVector:
		return appendFloat(buf, v.Floats()[i]), nil
	case *bat.StringVector:
		return appendString(buf, v.Strings()[i])
	case *bat.BoolVector:
		return strconv.AppendBool(buf, v.Bools()[i]), nil
	}
	return appendValue(buf, vec.Get(i))
}

// appendValue appends a boxed cell; what has no typed form here
// (timestamps, array handles) goes through encoding/json.
func appendValue(buf []byte, v sciql.Value) ([]byte, error) {
	if !v.Null {
		switch v.Typ {
		case value.Int:
			return appendInt(buf, v.I), nil
		case value.Float:
			return appendFloat(buf, v.F), nil
		case value.String:
			return appendString(buf, v.S)
		case value.Bool:
			return strconv.AppendBool(buf, v.B), nil
		}
	}
	return appendJSON(buf, sciql.GoValue(v))
}

// encodeError marks a cell encoding/json refuses (an opaque handle it
// cannot walk): the server's failure, not the statement's.
type encodeError struct{ error }

func appendJSON(buf []byte, v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, encodeError{err}
	}
	return append(buf, b...), nil
}

// appendInt writes integers JSON readers hold exactly as numbers and
// the rest as strings.
func appendInt(buf []byte, i int64) []byte {
	const maxExact = int64(1) << 53
	if i > maxExact || i < -maxExact {
		buf = append(buf, '"')
		buf = strconv.AppendInt(buf, i, 10)
		return append(buf, '"')
	}
	return strconv.AppendInt(buf, i, 10)
}

// appendFloat writes a float the way encoding/json does (ES6 number
// formatting); the values JSON numbers cannot carry travel as the
// strings "NaN", "Infinity" and "-Infinity".
func appendFloat(buf []byte, f float64) []byte {
	switch {
	case math.IsNaN(f):
		return append(buf, `"NaN"`...)
	case math.IsInf(f, 1):
		return append(buf, `"Infinity"`...)
	case math.IsInf(f, -1):
		return append(buf, `"-Infinity"`...)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	buf = strconv.AppendFloat(buf, f, format, -1, 64)
	if n := len(buf); format == 'e' && n >= 4 && buf[n-4] == 'e' && buf[n-3] == '-' && buf[n-2] == '0' {
		buf[n-2] = buf[n-1] // e-09 reads e-9
		buf = buf[:n-1]
	}
	return buf
}

// appendString quotes s; anything encoding/json would escape — quotes,
// backslashes, control and HTML-sensitive characters, every non-ASCII
// byte — is left to it.
func appendString(buf []byte, s string) ([]byte, error) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return appendJSON(buf, s)
		}
	}
	buf = append(buf, '"')
	buf = append(buf, s...)
	return append(buf, '"'), nil
}
