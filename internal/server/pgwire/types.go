package pgwire

import (
	"math"
	"strconv"
	"strings"
	"time"

	"repro/internal/exec"
	"repro/internal/value"
)

// PostgreSQL type OIDs used on the wire. Every SciQL result column
// maps onto one of these; values always travel in text format.
const (
	OIDBool      = 16
	OIDInt8      = 20
	OIDInt2      = 21
	OIDInt4      = 23
	OIDText      = 25
	OIDFloat4    = 700
	OIDFloat8    = 701
	OIDVarchar   = 1043
	OIDTimestamp = 1114
)

// TypeOID maps an engine column type onto its wire OID. Unknown (a
// streaming expression column whose type refines during iteration)
// and nested-array columns travel as text.
func TypeOID(t value.Type) uint32 {
	switch t {
	case value.Bool:
		return OIDBool
	case value.Int:
		return OIDInt8
	case value.Float:
		return OIDFloat8
	case value.Timestamp:
		return OIDTimestamp
	default:
		return OIDText
	}
}

// EncodeText renders one engine value in the wire text format; nil
// means NULL (sent as a -1 field length).
func EncodeText(v value.Value) []byte {
	if v.Null {
		return nil
	}
	dst, typed := appendCell(make([]byte, 0, 24), exec.CellOf(v))
	if !typed {
		dst = append(dst, v.String()...)
	}
	return dst
}

// appendCell appends the wire text format of a non-NULL cell to dst —
// the one definition of it; false (nothing appended) for a cell with no
// typed form, which travels as its String. Booleans use the PostgreSQL
// "t"/"f" spelling and non-finite floats its "Infinity"/"-Infinity"/
// "NaN" (libpq-family clients reject Go's "+Inf"); every other value
// reads as the engine's canonical rendering, so what psql shows matches
// the in-process result printer byte for byte.
func appendCell(dst []byte, c exec.Cell) ([]byte, bool) {
	switch c.Typ {
	case value.Bool:
		if c.N != 0 {
			return append(dst, 't'), true
		}
		return append(dst, 'f'), true
	case value.Int:
		return strconv.AppendInt(dst, c.N, 10), true
	case value.Float:
		f := c.Float()
		switch {
		case math.IsInf(f, 1):
			return append(dst, "Infinity"...), true
		case math.IsInf(f, -1):
			return append(dst, "-Infinity"...), true
		}
		return strconv.AppendFloat(dst, f, 'g', -1, 64), true
	case value.String:
		return append(dst, c.S...), true
	case value.Timestamp: // as value.String formats it
		return time.UnixMicro(c.N).UTC().AppendFormat(dst, "2006-01-02 15:04:05.000000"), true
	}
	return dst, false
}

// DecodeParam converts one text-format parameter into an engine value
// using the OID declared at Parse time. OID 0 (unspecified) infers:
// integer, then float, then string — send an explicit text OID to bind
// a numeric-looking string.
func DecodeParam(data []byte, oid uint32) (value.Value, error) {
	if data == nil {
		return value.NewNull(value.Unknown), nil
	}
	s := string(data)
	switch oid {
	case OIDInt2, OIDInt4, OIDInt8:
		i, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return value.Value{}, err
		}
		return value.NewInt(i), nil
	case OIDFloat4, OIDFloat8:
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return value.Value{}, err
		}
		return value.NewFloat(f), nil
	case OIDBool:
		switch strings.ToLower(s) {
		case "t", "true", "1", "on", "yes":
			return value.NewBool(true), nil
		default:
			return value.NewBool(false), nil
		}
	case OIDTimestamp:
		return value.ParseTimestamp(s)
	case OIDText, OIDVarchar:
		return value.NewString(s), nil
	default:
		if i, err := strconv.ParseInt(s, 10, 64); err == nil {
			return value.NewInt(i), nil
		}
		if f, err := strconv.ParseFloat(s, 64); err == nil {
			return value.NewFloat(f), nil
		}
		return value.NewString(s), nil
	}
}

// SplitStatements splits a simple-protocol query string on top-level
// semicolons, honoring single-quoted string literals (with ''
// escapes) and double-quoted identifiers, the two quoting forms the
// SciQL lexer accepts. Empty statements (bare semicolons, trailing
// whitespace) are dropped.
func SplitStatements(sql string) []string {
	var out []string
	start := 0
	for i := 0; i < len(sql); i++ {
		switch sql[i] {
		case '\'':
			for i++; i < len(sql); i++ {
				if sql[i] == '\'' {
					if i+1 < len(sql) && sql[i+1] == '\'' {
						i++
						continue
					}
					break
				}
			}
		case '"':
			for i++; i < len(sql); i++ {
				if sql[i] == '"' {
					break
				}
			}
		case ';':
			if s := strings.TrimSpace(sql[start:i]); s != "" {
				out = append(out, s)
			}
			start = i + 1
		}
	}
	if s := strings.TrimSpace(sql[start:]); s != "" {
		out = append(out, s)
	}
	return out
}

// CommandTag derives the command-completion tag of a statement: its
// leading keyword, uppercased ("BEGIN", "UPDATE", "CREATE", ...).
// SELECT tags append the row count at the call site.
func CommandTag(sql string) string {
	fields := strings.Fields(sql)
	if len(fields) == 0 {
		return ""
	}
	return strings.ToUpper(fields[0])
}
