// Package exec implements the SciQL query executor: column-at-a-time
// evaluation of SELECT (including structural tiling), the array DML
// semantics of §3.2 (cell updates, spreadsheet-style insert/delete
// shifting), coercions between TABLE and ARRAY perspectives (§3.3),
// and white-/black-box user-defined functions (§6).
package exec

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/bat"
	"repro/internal/expr"
	"repro/internal/value"
)

// Col describes one column of a result set.
type Col struct {
	// Name is the output column name.
	Name string
	// Qual is the source qualifier (table/array name or alias) used to
	// resolve qualified references; empty for computed columns.
	Qual string
	// Typ is the column type.
	Typ value.Type
	// IsDim marks SciQL dimension columns ([x] target qualifiers and
	// array-scan index columns).
	IsDim bool
}

// Dataset is a materialized relation: the unit of data flow between
// operators and the engine's query result.
type Dataset struct {
	Cols []Col
	Vecs []bat.Vector
}

// NewDataset allocates an empty dataset with the given columns.
func NewDataset(cols []Col) *Dataset {
	d := &Dataset{Cols: cols}
	d.Vecs = make([]bat.Vector, len(cols))
	for i, c := range cols {
		d.Vecs[i] = bat.New(c.Typ, 0)
	}
	return d
}

// NumRows returns the row count.
func (d *Dataset) NumRows() int {
	if len(d.Vecs) == 0 {
		return 0
	}
	return d.Vecs[0].Len()
}

// NumCols returns the column count.
func (d *Dataset) NumCols() int { return len(d.Cols) }

// Append adds one row.
func (d *Dataset) Append(vals []value.Value) {
	for i, v := range vals {
		d.Vecs[i].Append(v)
	}
}

// concat appends src's rows, column by column in bulk. d's vectors
// must be d's own (src's may be views).
func (d *Dataset) concat(src *Dataset) {
	for c := range d.Vecs {
		d.Vecs[c] = bat.Concat(d.Vecs[c], src.Vecs[c])
	}
}

// Row returns row i as values (freshly allocated).
func (d *Dataset) Row(i int) []value.Value {
	out := make([]value.Value, len(d.Vecs))
	for c, v := range d.Vecs {
		out[c] = v.Get(i)
	}
	return out
}

// Get returns the value at (row, col).
func (d *Dataset) Get(row, col int) value.Value { return d.Vecs[col].Get(row) }

// ColIndex finds a column by (optional) qualifier and name; -1 when
// absent, -2 when ambiguous.
func (d *Dataset) ColIndex(qual, name string) int {
	found := -1
	for i, c := range d.Cols {
		if !strings.EqualFold(c.Name, name) {
			continue
		}
		if qual != "" && !strings.EqualFold(c.Qual, qual) {
			continue
		}
		if found >= 0 {
			return -2
		}
		found = i
	}
	return found
}

// Gather returns a new dataset with the rows at idx.
func (d *Dataset) Gather(idx []int) *Dataset {
	out := &Dataset{Cols: d.Cols, Vecs: make([]bat.Vector, len(d.Vecs))}
	for i, v := range d.Vecs {
		out.Vecs[i] = v.Gather(idx)
	}
	return out
}

// SortBy stably sorts rows by the given column positions, ascending
// with NULLs first; desc flips per key.
func (d *Dataset) SortBy(cols []int, desc []bool) {
	n := d.NumRows()
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		for k, c := range cols {
			cmp := value.Compare(d.Vecs[c].Get(idx[a]), d.Vecs[c].Get(idx[b]))
			if cmp == 0 {
				continue
			}
			if len(desc) > k && desc[k] {
				return cmp > 0
			}
			return cmp < 0
		}
		return false
	})
	for i, v := range d.Vecs {
		d.Vecs[i] = v.Gather(idx)
	}
}

// String renders the dataset as an aligned text table (the REPL and
// the examples use it).
func (d *Dataset) String() string {
	var sb strings.Builder
	widths := make([]int, len(d.Cols))
	header := make([]string, len(d.Cols))
	for i, c := range d.Cols {
		h := c.Name
		if c.IsDim {
			h = "[" + h + "]"
		}
		header[i] = h
		widths[i] = len(h)
	}
	n := d.NumRows()
	cells := make([][]string, n)
	for r := 0; r < n; r++ {
		cells[r] = make([]string, len(d.Cols))
		for c := range d.Cols {
			s := d.Vecs[c].Get(r).String()
			cells[r][c] = s
			if len(s) > widths[c] {
				widths[c] = len(s)
			}
		}
	}
	for i, h := range header {
		fmt.Fprintf(&sb, "%-*s", widths[i]+2, h)
	}
	sb.WriteByte('\n')
	for i := range header {
		sb.WriteString(strings.Repeat("-", widths[i]) + "  ")
	}
	sb.WriteByte('\n')
	for r := 0; r < n; r++ {
		for c := range d.Cols {
			fmt.Fprintf(&sb, "%-*s", widths[c]+2, cells[r][c])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// rowEnv exposes one dataset row as an expression environment, chained
// to an outer environment (correlated subqueries, anchor bindings).
type rowEnv struct {
	d      *Dataset
	row    int
	params map[string]value.Value
	outer  expr.Env
}

func (r *rowEnv) Lookup(qual, name string) (value.Value, bool) {
	i := r.d.ColIndex(qual, name)
	if i >= 0 {
		return r.d.Vecs[i].Get(r.row), true
	}
	if r.outer != nil {
		return r.outer.Lookup(qual, name)
	}
	return value.Value{}, false
}

func (r *rowEnv) Param(name string) (value.Value, bool) {
	if v, ok := r.params[strings.ToLower(name)]; ok {
		return v, true
	}
	if r.outer != nil {
		return r.outer.Param(name)
	}
	return value.Value{}, false
}

// valuesEnv exposes an in-flight row (column metadata + values) as an
// environment, without materializing a dataset.
type valuesEnv struct {
	cols  []Col
	vals  []value.Value
	outer expr.Env
}

func (v *valuesEnv) Lookup(qual, name string) (value.Value, bool) {
	found := -1
	for i, c := range v.cols {
		if !strings.EqualFold(c.Name, name) {
			continue
		}
		if qual != "" && !strings.EqualFold(c.Qual, qual) {
			continue
		}
		found = i
		break
	}
	if found >= 0 {
		return v.vals[found], true
	}
	if v.outer != nil {
		return v.outer.Lookup(qual, name)
	}
	return value.Value{}, false
}

func (v *valuesEnv) Param(name string) (value.Value, bool) {
	if v.outer != nil {
		return v.outer.Param(name)
	}
	return value.Value{}, false
}

// groupKeyTable builds the key table of the rows of cols under grouping
// semantics — NULL is a key value of its own (never the string 'NULL'),
// every NaN is one key, -0.0 and 0.0 are two — block by block, polling
// the statement context, and charges it to the statement budget.
func (e *Engine) groupKeyTable(cols []bat.Vector) (*bat.KeyTable, error) {
	keys := bat.GroupKeys(cols)
	table := bat.NewKeyTable(keys, 1)
	if err := chargeBudget(e.budget, keys.Bytes()+table.Bytes()); err != nil {
		return nil, err
	}
	for lo, n := 0, keys.Len(); lo < n; lo += keyBuildRows {
		if err := e.canceled(); err != nil {
			return nil, err
		}
		keys.Fill(lo, min(lo+keyBuildRows, n))
		table.Build(0, lo, min(lo+keyBuildRows, n))
	}
	return table, nil
}

// distinctRows returns, in order, the rows of cols that are the first
// with their (grouping) key.
func (e *Engine) distinctRows(cols []bat.Vector) ([]int, error) {
	table, err := e.groupKeyTable(cols)
	if err != nil {
		return nil, err
	}
	first := make([]int, 0, table.Distinct())
	for i := 0; len(first) < cap(first); i++ { // every key has one first row
		if table.First(i) {
			first = append(first, i)
		}
	}
	return first, nil
}

// dedupe removes duplicate rows (SELECT DISTINCT / UNION), keeping
// first occurrences.
func (e *Engine) dedupe(d *Dataset) (*Dataset, error) {
	keep, err := e.distinctRows(d.Vecs)
	if err != nil || len(keep) == d.NumRows() {
		return d, err
	}
	return d.Gather(keep), nil
}
