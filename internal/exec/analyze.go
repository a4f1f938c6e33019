package exec

import (
	"fmt"
	"time"

	"repro/internal/plan"
	"repro/internal/sql/ast"
	"repro/internal/telemetry"
	"repro/internal/value"
)

// execExplain dispatches an EXPLAIN statement: plain EXPLAIN renders
// the optimized plan without executing; EXPLAIN ANALYZE executes the
// wrapped SELECT with a per-query profile armed and renders the same
// tree annotated with the measured per-operator statistics.
func (e *Engine) execExplain(s *ast.Explain, env *baseEnv) (*Dataset, error) {
	if s.DML != nil {
		return e.execExplainAnalyzeDML(s.DML, env)
	}
	if !s.Analyze {
		return e.ExplainSelect(s.Select), nil
	}
	return e.execExplainAnalyze(s.Select, env)
}

// execExplainAnalyze runs the SELECT with the session's profile
// collector armed — every execution path (serial or morsel-driven,
// interpreted or vectorized) flushes its chunk-level counters into it
// — then renders the optimized tree with per-operator wall time, rows
// in/out, chunk/cell counts and observed execution mode, the execution
// mode line, and a closing "analyze: rows=N elapsed=T" summary. The
// query's result itself is discarded: ANALYZE reports on the run, and
// the run is byte-identical to the unprofiled statement by the
// profiling contract (collection is chunk-level atomics only).
func (e *Engine) execExplainAnalyze(sel *ast.Select, env *baseEnv) (*Dataset, error) {
	prof := telemetry.NewProfile()
	e.prof = prof
	res, err := e.execSelect(sel, env)
	e.prof = nil
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(prof.Start)
	prof.Output.RowsOut.Store(int64(res.NumRows()))
	prof.Output.AddNanos(elapsed)
	pl := e.planSelect(sel)
	out := planLinesDataset(pl.RenderAnalyzed(analyzeAnnotator(prof)))
	out.Append([]value.Value{value.NewString(e.executionModeLine(sel, pl))})
	out.Append([]value.Value{value.NewString(fmt.Sprintf("analyze: rows=%d elapsed=%s", res.NumRows(), elapsed.Round(time.Microsecond)))})
	return out, nil
}

// execExplainAnalyzeDML runs an UPDATE or DELETE — for real: it commits
// like the bare statement — with the profile armed and reports the one
// operator an array DML statement is: cells scanned, cells matched,
// segments the write had to copy, and whether its expressions ran as
// kernels (columnar) or through the row interpreter.
func (e *Engine) execExplainAnalyzeDML(stmt ast.Statement, env *baseEnv) (*Dataset, error) {
	prof := telemetry.NewProfile()
	e.prof = prof
	_, err := e.execStmt(stmt, env.params)
	e.prof = nil
	if err != nil {
		return nil, err
	}
	var name string
	switch s := stmt.(type) {
	case *ast.Update:
		name = "Update " + s.Table
	case *ast.Delete:
		name = "Delete " + s.Table
	}
	out := planLinesDataset(name + telemetry.RenderOp(&prof.DML, false))
	out.Append([]value.Value{value.NewString(fmt.Sprintf("analyze: rows=%d elapsed=%s", prof.DML.RowsOut.Load(), time.Since(prof.Start).Round(time.Microsecond)))})
	return out, nil
}

// analyzeAnnotator maps each plan operator onto the profile slot that
// collected its runtime statistics. Operators the profiled paths do
// not time (Opaque sources, Union glue) carry no annotation.
func analyzeAnnotator(prof *telemetry.Profile) func(plan.Node) string {
	return func(n plan.Node) string {
		switch t := n.(type) {
		case *plan.Scan:
			return telemetry.RenderOp(&prof.Scan, false)
		case *plan.Filter:
			if t.Having {
				return telemetry.RenderOp(&prof.Having, true)
			}
			return telemetry.RenderOp(&prof.Filter, true)
		case *plan.Project:
			return telemetry.RenderOp(&prof.Project, true)
		case *plan.Aggregate:
			return telemetry.RenderOp(&prof.Aggregate, true)
		case *plan.TiledAggregate:
			return telemetry.RenderOp(&prof.Tiled, true)
		case *plan.Sort:
			return telemetry.RenderOp(&prof.Sort, true)
		case *plan.Distinct:
			return telemetry.RenderOp(&prof.Distinct, true)
		case *plan.Limit:
			return telemetry.RenderOp(&prof.Limit, true)
		case *plan.Join:
			return telemetry.RenderOp(&prof.Join, true)
		}
		return ""
	}
}
