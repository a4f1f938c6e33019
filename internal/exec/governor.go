package exec

import (
	"context"
	"errors"

	"repro/internal/bat"
	"repro/internal/governor"
)

// This file is the executor side of the resource governor: the
// statement-boundary error finisher, the budget charge helper the
// chunk loops call, and the byte estimators behind it. Charges follow
// the hotloopflush discipline — cell loops accumulate into plain
// locals and charge once per chunk through chargeBudget, never per
// cell (the sciql-lint hotloopflush analyzer enforces this for
// Budget.Charge like it does for telemetry instruments).

// Gov returns the database's resource governor. It is nil on a Shared
// constructed without New; every governor method is nil-receiver safe,
// so call sites need no guard.
func (e *Engine) Gov() *governor.Governor { return e.gov }

// chargeBudget posts one chunk's locally-accumulated byte total to the
// statement budget; nil budget (no limits configured) is free.
func chargeBudget(b *governor.Budget, n int64) error {
	return b.Charge(n)
}

// govFinish translates a statement's terminal error at the governance
// boundary: contained panics (recovered here or propagated up from a
// pool worker) count once into queries_panicked_total, and a deadline
// fired by the governor's statement timer becomes ErrStatementTimeout
// while caller cancellation passes through untouched.
func govFinish(gov *governor.Governor, sctx context.Context, err error) error {
	if err == nil {
		return nil
	}
	var pe *governor.PanicError
	if errors.As(err, &pe) {
		gov.NotePanic()
	}
	return gov.TimeoutErr(sctx, err)
}

// registerCursorRelease enters rel in the session and shared cursor
// ledgers under a fresh (negative) token, so a governed cursor's
// admission slot, budget and statement timer release even when the
// cursor is abandoned without Close: connection teardown
// (ReleaseCursorPins) and DB.Close (ReleaseAllCursorPins) drain the
// same ledgers they drain for snapshot pins. The returned func runs
// rel once, whichever caller gets there first.
func (e *Engine) registerCursorRelease(rel func()) func() {
	sh := e.Shared
	tok := -sh.curSeq.Add(1)
	fn := func() {
		sh.curMu.Lock()
		if _, ok := sh.curRel[tok]; !ok {
			sh.curMu.Unlock()
			return
		}
		delete(sh.curRel, tok)
		sh.curMu.Unlock()
		delete(e.curPins, tok)
		rel()
	}
	if e.curPins == nil {
		e.curPins = make(map[int64]func())
	}
	e.curPins[tok] = fn
	sh.curMu.Lock()
	if sh.curRel == nil {
		sh.curRel = make(map[int64]func())
	}
	sh.curRel[tok] = fn
	sh.curMu.Unlock()
	return fn
}

// approxDatasetBytes estimates a columnar dataset's payload footprint.
func approxDatasetBytes(ds *Dataset) int64 {
	if ds == nil {
		return 0
	}
	var n int64
	for _, v := range ds.Vecs {
		n += bat.ApproxBytes(v)
	}
	return n
}
