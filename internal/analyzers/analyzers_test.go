package analyzers_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strings"
	"testing"

	"repro/internal/analyzers"
	"repro/internal/analyzers/analysis"
	"repro/internal/analyzers/analyzertest"
)

func one(a *analysis.Analyzer) []*analysis.Analyzer { return []*analysis.Analyzer{a} }

func TestCatalogAccess(t *testing.T) {
	analyzertest.Run(t, "testdata", one(analyzers.CatalogAccess), "catalogaccess/internal/exec")
}

func TestHotLoopFlush(t *testing.T) {
	analyzertest.Run(t, "testdata", one(analyzers.HotLoopFlush), "hotloopflush/internal/exec")
}

func TestHotLoopFlushServer(t *testing.T) {
	analyzertest.Run(t, "testdata", one(analyzers.HotLoopFlush), "hotloopflush/internal/server/pgwire")
}

func TestCtxPoll(t *testing.T) {
	analyzertest.Run(t, "testdata", one(analyzers.CtxPoll), "ctxpoll/internal/exec")
}

func TestCtxPollServer(t *testing.T) {
	analyzertest.Run(t, "testdata", one(analyzers.CtxPoll), "ctxpoll/internal/server/pgwire", "ctxpoll/internal/server/httpapi")
}

func TestLockOrder(t *testing.T) {
	analyzertest.Run(t, "testdata", one(analyzers.LockOrder), "lockorder/internal/exec")
}

// TestSuiteRegistered pins the acceptance floor: at least four
// analyzers, every name a valid identifier, no duplicates.
func TestSuiteRegistered(t *testing.T) {
	all := analyzers.All()
	if len(all) < 4 {
		t.Fatalf("suite has %d analyzers, want >= 4", len(all))
	}
	seen := map[string]bool{}
	for _, a := range all {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %q missing name, doc, or run function", a.Name)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
}

// TestScopedPackagesIgnored checks the analyzers stay quiet on
// packages outside their scope (e.g. os/exec-like paths must not match
// the internal/exec suffix).
func TestScopedPackagesIgnored(t *testing.T) {
	analyzertest.Run(t, "testdata", analyzers.All(), "osexeclike/exec")
}

// realFunc returns the source text of a function of the real tree.
func realFunc(t *testing.T, file, name string) string {
	t.Helper()
	src, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, file, src, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range f.Decls {
		if fn, ok := d.(*ast.FuncDecl); ok && fn.Name.Name == name {
			return string(src[fset.Position(fn.Pos()).Offset:fset.Position(fn.End()).Offset])
		}
	}
	t.Fatalf("%s: no function %s — re-point the batch-loop rules (hotloopflush, ctxpoll) at what replaced it", file, name)
	return ""
}

// sendRowsStubs is what the real sendRows needs around it to typecheck
// as a tiny package of its own.
const sendRowsStubs = `package pgwire

import (
	"context"

	"sciql"
	"telemetry"
)

type Column struct{}
type Writer struct{}

func (w *Writer) WriteRowDescription([]Column) error                  { return nil }
func (w *Writer) WriteDataRows(b *sciql.Batch, lo, hi int) error      { return nil }
func rowColumns(*sciql.Rows) []Column                                 { return nil }
func takeBatch(r *sciql.Rows, max int) (*sciql.Batch, int, int)       { return nil, 0, 0 }

type Metrics struct{ RowsSent *telemetry.Counter }
type Backend struct{}

func (b *Backend) met() *Metrics { return &Metrics{} }

type serverConn struct {
	b  *Backend
	wr *Writer
}

const sendBatchRows = 4096

var _ context.Context
`

// TestBatchLoopRulesResolveSendRows keeps the batch-loop rules pointed
// at their target: the real sendRows, lifted into a tiny package, must
// pass both analyzers — and stop passing the moment the batch pull or
// the poll is taken out of it, which proves the rules resolve this
// loop rather than merely finding nothing to say about it. When
// sendRows changes shape so that one of the edits below no longer
// applies, the rules need re-pointing, and this test says so.
func TestBatchLoopRulesResolveSendRows(t *testing.T) {
	fn := realFunc(t, "../server/pgwire/backend.go", "sendRows")
	lint := func(body string) []string {
		return analyzertest.Source(t, "testdata", []*analysis.Analyzer{analyzers.HotLoopFlush, analyzers.CtxPoll},
			"lifted/internal/server/pgwire", map[string]string{"stubs.go": sendRowsStubs, "sendrows.go": "package pgwire\n\nimport (\n\t\"context\"\n\t\"sciql\"\n)\n\n" + body})
	}
	edit := func(old, new string) string {
		if strings.Count(fn, old) != 1 {
			t.Fatalf("sendRows no longer contains %q exactly once — re-point the batch-loop rules:\n%s", old, fn)
		}
		return strings.Replace(fn, old, new, 1)
	}
	if diags := lint(fn); len(diags) != 0 {
		t.Fatalf("the real sendRows is flagged: %q", diags)
	}
	// Its per-batch counter flush is legal only because the loop pulls a
	// batch: pull it some other way and the flush is a per-row atomic.
	if diags := lint(edit("rows.Batch(", "takeBatch(rows, ")); len(diags) != 1 || !strings.Contains(diags[0], "inside a per-cell loop") {
		t.Fatalf("without Rows.Batch in the loop: %q, want the RowsSent flush flagged", diags)
	}
	// And the loop owes a poll per batch.
	if diags := lint(edit("ctx.Err()", "error(nil)")); len(diags) != 1 || !strings.Contains(diags[0], "batch-encode loop without a cancellation poll") {
		t.Fatalf("without the context poll: %q, want the batch-encode loop flagged", diags)
	}
}
