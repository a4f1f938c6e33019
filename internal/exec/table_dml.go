package exec

import (
	"fmt"
	"strings"

	"repro/internal/bat"
	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/sql/ast"
	"repro/internal/value"
)

// catalogTable aliases the catalog's table type for the DML paths.
type catalogTable = catalog.Table

// tableRowEnv exposes one table row, answering qualified lookups.
type tableRowEnv struct {
	t     *catalogTable
	row   int
	outer expr.Env
}

func (r *tableRowEnv) Lookup(qual, name string) (value.Value, bool) {
	if qual == "" || strings.EqualFold(qual, r.t.Name) {
		if i := r.t.ColIndex(name); i >= 0 {
			return r.t.Vecs[i].Get(r.row), true
		}
	}
	if r.outer != nil {
		return r.outer.Lookup(qual, name)
	}
	return value.Value{}, false
}

func (r *tableRowEnv) Param(name string) (value.Value, bool) {
	if r.outer != nil {
		return r.outer.Param(name)
	}
	return value.Value{}, false
}

func (e *Engine) insertTable(t *catalogTable, s *ast.Insert, outer expr.Env) error {
	colMap := make([]int, 0, len(t.Cols))
	if len(s.Columns) > 0 {
		for _, c := range s.Columns {
			i := t.ColIndex(c)
			if i < 0 {
				return fmt.Errorf("table %s has no column %s", t.Name, c)
			}
			colMap = append(colMap, i)
		}
	} else {
		for i := range t.Cols {
			colMap = append(colMap, i)
		}
	}
	appendRow := func(vals []value.Value) error {
		if len(vals) != len(colMap) {
			return fmt.Errorf("INSERT INTO %s: expected %d values, got %d", t.Name, len(colMap), len(vals))
		}
		row := make([]value.Value, len(t.Cols))
		for i := range row {
			row[i] = value.NewNull(t.Cols[i].Typ)
		}
		for vi, ci := range colMap {
			v := vals[vi]
			if t.Cols[ci].Typ != value.Array {
				cv, err := value.Coerce(v, t.Cols[ci].Typ)
				if err != nil {
					return fmt.Errorf("INSERT INTO %s.%s: %w", t.Name, t.Cols[ci].Name, err)
				}
				v = cv
			}
			row[ci] = v
		}
		return t.Append(row)
	}
	if s.Select != nil {
		ds, err := e.execSelect(s.Select, outer)
		if err != nil {
			return err
		}
		for r := 0; r < ds.NumRows(); r++ {
			if err := appendRow(ds.Row(r)); err != nil {
				return err
			}
		}
		return nil
	}
	for _, rowExprs := range s.Values {
		vals := make([]value.Value, len(rowExprs))
		for i, x := range rowExprs {
			v, err := e.Ev.Eval(x, outer)
			if err != nil {
				return err
			}
			vals[i] = v
		}
		if err := appendRow(vals); err != nil {
			return err
		}
	}
	return nil
}

func (e *Engine) updateTable(t *catalogTable, s *ast.Update, outer expr.Env) error {
	n := t.NumRows()
	for r := 0; r < n; r++ {
		env := &tableRowEnv{t: t, row: r, outer: outer}
		if s.Where != nil {
			ok, err := e.Ev.EvalBool(s.Where, env)
			if err != nil {
				return err
			}
			if !ok {
				continue
			}
		}
		for _, asg := range s.Sets {
			id, ok := asg.Target.(*ast.Ident)
			if !ok {
				return fmt.Errorf("UPDATE %s: target must be a column", t.Name)
			}
			ci := t.ColIndex(id.Name)
			if ci < 0 {
				return fmt.Errorf("table %s has no column %s", t.Name, id.Name)
			}
			v, err := e.Ev.Eval(asg.Value, env)
			if err != nil {
				return err
			}
			if t.Cols[ci].Typ != value.Array {
				cv, err := value.Coerce(v, t.Cols[ci].Typ)
				if err != nil {
					return err
				}
				v = cv
			}
			t.Vecs[ci].Set(r, v)
		}
	}
	return nil
}

func (e *Engine) deleteTable(t *catalogTable, s *ast.Delete, outer expr.Env) error {
	var keep []int
	n := t.NumRows()
	for r := 0; r < n; r++ {
		if s.Where != nil {
			env := &tableRowEnv{t: t, row: r, outer: outer}
			ok, err := e.Ev.EvalBool(s.Where, env)
			if err != nil {
				return err
			}
			if ok {
				continue
			}
		} else {
			continue // DELETE without WHERE removes everything
		}
		keep = append(keep, r)
	}
	for i, v := range t.Vecs {
		t.Vecs[i] = v.Gather(keep)
	}
	return nil
}

// ensure bat import is used even if Gather paths change.
var _ = bat.New
