package exec

import (
	"strings"

	"repro/internal/array"
	"repro/internal/sql/ast"
	"repro/internal/telemetry"
	"repro/internal/value"
)

// This file implements zone-map chunk skipping: before a chunked scan
// walks a chunk, its per-chunk statistics (array.StatsProvider) are
// tested against the scan's dimension restrictions and the residual
// WHERE conjuncts of the form <attr> cmp <literal>. A chunk whose
// bounds provably cannot produce a surviving row is dropped from the
// chunk list without visiting a single cell. Skipping is conservative:
// the dropped conjuncts stay in the filter, so an over-wide bound can
// only cost time, never change results.

// attrZoneTest is one skippable predicate over a schema attribute.
// op is one of "<", "<=", ">", ">=", "=", "isnull", "notnull"; lit is
// the non-NULL comparison literal (unused for the null tests).
type attrZoneTest struct {
	attr int
	op   string
	lit  value.Value
}

// chunkSkipper holds the compiled skip conditions of one array scan.
type chunkSkipper struct {
	eff   []dimSel // effective per-dimension restriction (slicing ∩ pushdown)
	tests []attrZoneTest
}

// buildChunkSkipper compiles the scan's skip conditions. conjs are the
// residual WHERE conjuncts (after dimension pushdown); bare controls
// whether unqualified identifiers may bind to this array's attributes
// (true only when the statement has a single source, so the binding is
// unambiguous — in join shapes only quals like "g1.a" are trusted).
// Returns nil when skipping is disabled or no condition can prune.
func (e *Engine) buildChunkSkipper(a *array.Array, qual string, eff []dimSel, conjs []ast.Expr, bare bool) *chunkSkipper {
	if !e.chunkSkip {
		return nil
	}
	sk := &chunkSkipper{eff: eff}
	for _, c := range conjs {
		sk.addConjunct(a, qual, c, bare)
	}
	if len(sk.tests) == 0 {
		// Dimension-only skipping still pays off for slices, but only
		// when some dimension is actually restricted.
		restricted := false
		for i := range eff {
			if !eff[i].full {
				restricted = true
				break
			}
		}
		if !restricted {
			return nil
		}
	}
	return sk
}

// addConjunct extracts zero or more zone tests from one conjunct.
func (sk *chunkSkipper) addConjunct(a *array.Array, qual string, c ast.Expr, bare bool) {
	resolve := func(x ast.Expr) int {
		id, ok := x.(*ast.Ident)
		if !ok {
			return -1
		}
		if id.Table != "" && !strings.EqualFold(id.Table, qual) {
			return -1
		}
		if id.Table == "" && !bare {
			return -1
		}
		return attrIndexFold(a, id.Name)
	}
	addCmp := func(ai int, op string, lit value.Value) {
		at := a.Schema.Attrs[ai].Typ
		// Only pairs value.Compare orders the same way the evaluator
		// does: numeric vs numeric, or string vs string.
		if !(at.Numeric() && lit.Typ.Numeric()) && !(at == value.String && lit.Typ == value.String) {
			return
		}
		sk.tests = append(sk.tests, attrZoneTest{attr: ai, op: op, lit: lit})
	}
	switch t := c.(type) {
	case *ast.Binary:
		lit, ok := skipLiteral(t.R)
		if ai := resolve(t.L); ai >= 0 && ok {
			switch t.Op {
			case "=", "<", "<=", ">", ">=":
				addCmp(ai, t.Op, lit)
			}
			return
		}
		// Flipped orientation: literal cmp attr.
		lit, ok = skipLiteral(t.L)
		if ai := resolve(t.R); ai >= 0 && ok {
			switch t.Op {
			case "=":
				addCmp(ai, "=", lit)
			case "<":
				addCmp(ai, ">", lit)
			case "<=":
				addCmp(ai, ">=", lit)
			case ">":
				addCmp(ai, "<", lit)
			case ">=":
				addCmp(ai, "<=", lit)
			}
		}
	case *ast.Between:
		if t.Neg {
			return
		}
		ai := resolve(t.X)
		if ai < 0 {
			return
		}
		if lo, ok := skipLiteral(t.Lo); ok {
			addCmp(ai, ">=", lo)
		}
		if hi, ok := skipLiteral(t.Hi); ok {
			addCmp(ai, "<=", hi)
		}
	case *ast.IsNull:
		if ai := resolve(t.X); ai >= 0 {
			if t.Neg {
				sk.tests = append(sk.tests, attrZoneTest{attr: ai, op: "notnull"})
			} else {
				sk.tests = append(sk.tests, attrZoneTest{attr: ai, op: "isnull"})
			}
		}
	}
}

// skipLiteral evaluates a literal (or negated numeric literal) without
// touching the environment; ok is false for anything else or NULL.
func skipLiteral(x ast.Expr) (value.Value, bool) {
	switch t := x.(type) {
	case *ast.Literal:
		if t.Val.Null {
			return value.Value{}, false
		}
		return t.Val, true
	case *ast.Unary:
		if t.Op != "-" {
			return value.Value{}, false
		}
		lit, ok := t.X.(*ast.Literal)
		if !ok || lit.Val.Null {
			return value.Value{}, false
		}
		switch lit.Val.Typ {
		case value.Int:
			return value.NewInt(-lit.Val.I), true
		case value.Float:
			return value.NewFloat(-lit.Val.F), true
		}
	}
	return value.Value{}, false
}

// skip reports whether the chunk described by cs can be eliminated: no
// live cell in it can satisfy every compiled condition. NULL attribute
// values never satisfy a comparison (three-valued logic), so a chunk
// whose live cells are all NULL for a compared attribute skips too.
func (sk *chunkSkipper) skip(cs *array.ChunkStats) bool {
	if cs.Rows == 0 {
		return true
	}
	for i := range sk.eff {
		if i < len(cs.DimLo) && dimSelSkips(sk.eff[i], cs.DimLo[i], cs.DimHi[i]) {
			return true
		}
	}
	for _, t := range sk.tests {
		if t.attr >= len(cs.Attrs) {
			continue
		}
		as := &cs.Attrs[t.attr]
		switch t.op {
		case "isnull":
			if as.Nulls == 0 {
				return true
			}
		case "notnull":
			if as.Nulls == cs.Rows {
				return true
			}
		default:
			if as.Min.Null {
				return true // every live cell is NULL here: cmp never holds
			}
			switch t.op {
			case "=":
				if value.Compare(t.lit, as.Min) < 0 || value.Compare(t.lit, as.Max) > 0 {
					return true
				}
			case "<":
				if value.Compare(as.Min, t.lit) >= 0 {
					return true
				}
			case "<=":
				if value.Compare(as.Min, t.lit) > 0 {
					return true
				}
			case ">":
				if value.Compare(as.Max, t.lit) <= 0 {
					return true
				}
			case ">=":
				if value.Compare(as.Max, t.lit) < 0 {
					return true
				}
			}
		}
	}
	return false
}

// dimSelSkips reports whether no coordinate in the inclusive chunk
// bound [lo, hi] satisfies the dimension selection.
func dimSelSkips(s dimSel, lo, hi int64) bool {
	if s.point {
		return s.val < lo || s.val > hi
	}
	if s.full {
		return false
	}
	if hi < s.lo || lo >= s.hi {
		return true
	}
	if s.step > 1 && !s.sparse {
		// First on-grid coordinate at or above the chunk's low bound.
		x := s.lo
		if lo > x {
			x = s.lo + (lo-s.lo+s.step-1)/s.step*s.step
		}
		return x > hi || x >= s.hi
	}
	return false
}

// skipChunks filters a chunk list through the skipper, publishing the
// skipped count to the engine counters and the armed profile. The zone
// maps come from the same chunking target, so stats[i] describes
// chunks[i]; a store that keeps none, or a partition that disagrees (a
// concurrent shape change — never expected), skips nothing, which is
// always safe. The relative order of surviving chunks is preserved, so
// ordered merges downstream stay byte-identical to a serial scan of the
// survivors.
func (e *Engine) skipChunks(sk *chunkSkipper, st array.Store, chunks []array.ColumnChunk, target int, prof *telemetry.Profile) []array.ColumnChunk {
	sp, ok := st.(array.StatsProvider)
	if sk == nil || !ok {
		return chunks
	}
	stats := sp.ChunkStats(target)
	if len(stats) != len(chunks) {
		return chunks
	}
	kept := make([]array.ColumnChunk, 0, len(chunks))
	for i := range chunks {
		if !sk.skip(&stats[i]) {
			kept = append(kept, chunks[i])
		}
	}
	if skipped := int64(len(chunks) - len(kept)); skipped > 0 {
		e.metrics().scanChunksSkipped.Add(skipped)
		if prof != nil {
			prof.Scan.Skipped.Add(skipped)
		}
	}
	return kept
}
