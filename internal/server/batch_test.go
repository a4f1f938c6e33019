package server_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/server"
	"repro/internal/server/pgwire"
	"repro/sciql"
)

// Batch-boundary conformance: a result of more than two column batches
// read over the wire every way a client can stop and resume it, checked
// row for row against the in-process result and, message for message,
// against a model of the portal.

const wideQuery = `SELECT x, v, w FROM wide`

// newWideServer serves a 12 288-cell array: a scan of it is three
// 4096-row batches, at any parallelism.
func newWideServer(t *testing.T, par int) (*server.Server, *sciql.DB) {
	srv, db := newTestServer(t, nil)
	db.Parallelism(par)
	db.MustExec(`CREATE ARRAY wide (x INTEGER DIMENSION[12288], v FLOAT DEFAULT 0.0, w INTEGER DEFAULT 0)`)
	db.MustExec(`UPDATE wide SET v = x * 0.5, w = MOD(x, 7)`)
	// 32 chunks, more than the pool has workers: with every chunk scan
	// delayed, a result that is still being produced when a cancel lands.
	db.MustExec(`CREATE ARRAY huge (x INTEGER DIMENSION[131072], v FLOAT DEFAULT 0.0)`)
	db.MustExec(`UPDATE huge SET v = x * 0.5`)
	return srv, db
}

// portalModel is the portal as the protocol describes it: idle until
// the first Execute, then suspended after pos rows, then done.
type portalModel struct {
	total, pos int
	done       bool
}

// execute predicts the reply to Execute(limit): n DataRows, then
// PortalSuspended or CommandComplete("SELECT n").
func (m *portalModel) execute(limit int) (n int, suspended bool) {
	if m.done {
		return 0, false
	}
	if n = m.total - m.pos; limit > 0 && n >= limit {
		m.pos += limit
		return limit, true
	}
	m.pos, m.done = m.total, true
	return n, false
}

// batchSizes reads the in-process cursor's batch structure.
func batchSizes(t *testing.T, db *sciql.DB, q string) []int {
	rows, err := db.QueryContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	var sizes []int
	for rows.Next() {
		_, lo, hi := rows.Batch(0)
		sizes = append(sizes, hi-lo)
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	return sizes
}

// at maps a row offset onto (batch, row in batch); the end of the
// result is row 0 of the batch after the last.
func at(sizes []int, pos int) (batch, row int) {
	for batch < len(sizes) && pos >= sizes[batch] {
		pos -= sizes[batch]
		batch++
	}
	return batch, pos
}

func sameRows(t *testing.T, what string, got, want [][][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
	}
	for i := range want {
		for j := range want[i] {
			if !bytes.Equal(got[i][j], want[i][j]) {
				t.Fatalf("%s: row %d field %d = %q, in-process %q", what, i, j, got[i][j], want[i][j])
			}
		}
	}
}

func TestBatchBoundaries(t *testing.T) {
	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("par%d", par), func(t *testing.T) {
			defer faultinject.Reset()
			srv, db := newWideServer(t, par)
			want := inProcessRows(t, db, wideQuery)
			sizes := batchSizes(t, db, wideQuery)
			if _, row := at(sizes, 4096); len(want) <= 8192 || len(sizes) <= 2 || row != 0 {
				t.Fatalf("premise: %d rows in batches %v; want more than 8192 rows and a boundary at row 4096", len(want), sizes)
			}
			warm := dial(t, srv)
			if _, err := warm.SimpleQuery(wideQuery); err != nil {
				t.Fatal(err)
			}
			warm.Close()
			time.Sleep(50 * time.Millisecond)
			baseline := runtime.NumGoroutine()
			settled := func() {
				t.Helper()
				waitForPinned(t, db)
				waitForGoroutines(t, baseline)
			}

			c := dial(t, srv)
			defer c.Close()
			_, wr := c.Raw()

			// Simple query: every batch, every row.
			res, err := c.SimpleQuery(wideQuery)
			if err != nil {
				t.Fatal(err)
			}
			sameRows(t, "simple query", res[0].Rows, want)
			settled()

			// Row-limited Execute until CommandComplete, then once more on
			// the finished portal. Executes are pipelined 256 to a Sync.
			for _, limit := range []int{1, 7, 4096, 5000} {
				portal := fmt.Sprintf("p%d", limit)
				if err := errors.Join(wr.WriteParse("", wideQuery, nil), wr.WriteBind(portal, "", nil), wr.WriteSync(), wr.Flush()); err != nil {
					t.Fatal(err)
				}
				if _, err := c.ReadCycle(); err != nil {
					t.Fatal(err)
				}
				model := portalModel{total: len(want)}
				inside, on := 0, 0
				for extra := 0; extra < 1; {
					for i := 0; i < 256; i++ {
						wr.WriteExecute(portal, int32(limit))
					}
					if err := errors.Join(wr.WriteSync(), wr.Flush()); err != nil {
						t.Fatal(err)
					}
					res, err := c.ReadCycle()
					if err != nil || len(res) != 256 {
						t.Fatalf("limit %d: %d results, err %v", limit, len(res), err)
					}
					for _, r := range res {
						from, wasDone := model.pos, model.done
						n, suspended := model.execute(limit)
						batch, row := at(sizes, model.pos)
						state := fmt.Sprintf("limit %d, model %d rows on: suspended=%v at (batch %d, row %d) done=%v", limit, model.pos, suspended, batch, row, model.done)
						if r.Suspended != suspended || len(r.Rows) != n || (!suspended && r.Tag != fmt.Sprintf("SELECT %d", n)) {
							t.Fatalf("%s; server sent %d rows, suspended=%v, tag %q", state, len(r.Rows), r.Suspended, r.Tag)
						}
						sameRows(t, state, r.Rows, want[from:from+n])
						switch {
						case wasDone:
							extra++
						case suspended && row == 0:
							on++
						case suspended:
							inside++
						}
					}
				}
				switch {
				case limit == 4096 && (inside != 0 || on == 0):
					t.Fatalf("limit 4096: %d suspensions inside a batch, %d on a boundary; want all on", inside, on)
				case limit != 4096 && inside == 0:
					t.Fatalf("limit %d never suspended inside a batch", limit)
				}
				if err := errors.Join(wr.WriteClose('P', portal), wr.WriteSync(), wr.Flush()); err != nil {
					t.Fatal(err)
				}
				if _, err := c.ReadCycle(); err != nil {
					t.Fatal(err)
				}
				settled()
			}

			// Close of a portal suspended mid-batch releases its cursor; the
			// portal is gone afterwards.
			suspend := func(c *pgwire.Client, portal string) {
				t.Helper()
				_, wr := c.Raw()
				if err := errors.Join(wr.WriteParse("", wideQuery, nil), wr.WriteBind(portal, "", nil),
					wr.WriteExecute(portal, 5000), wr.WriteSync(), wr.Flush()); err != nil {
					t.Fatal(err)
				}
				res, err := c.ReadCycle()
				if err != nil || !res[0].Suspended {
					t.Fatalf("suspend: %+v, err %v", res, err)
				}
				sameRows(t, "suspended prefix", res[0].Rows, want[:5000])
				if _, row := at(sizes, 5000); row == 0 || pinned(db) == 0 {
					t.Fatalf("premise: suspended at row %d of its batch with %d snapshots pinned", row, pinned(db))
				}
			}
			suspend(c, "mid")
			if err := errors.Join(wr.WriteClose('P', "mid"), wr.WriteSync(), wr.Flush()); err != nil {
				t.Fatal(err)
			}
			if _, err := c.ReadCycle(); err != nil {
				t.Fatal(err)
			}
			settled()
			if err := errors.Join(wr.WriteExecute("mid", 0), wr.WriteSync(), wr.Flush()); err != nil {
				t.Fatal(err)
			}
			_, err = c.ReadCycle()
			wantPgError(t, err, "34000")

			// Abrupt disconnect with a portal suspended mid-batch.
			gone := dial(t, srv)
			suspend(gone, "mid")
			gone.CloseAbrupt()
			settled()

			// Cancel mid-stream: the rows that arrived are a prefix of the
			// result, the statement ends with 57014 and the session lives on.
			const hugeQuery = `SELECT x, v FROM huge`
			wantHuge := inProcessRows(t, db, hugeQuery)
			faultinject.Arm("scan.chunk", faultinject.Spec{Kind: faultinject.Delay, Delay: 10 * time.Millisecond})
			rd, _ := c.Raw()
			if err := errors.Join(wr.WriteQuery(hugeQuery), wr.Flush()); err != nil {
				t.Fatal(err)
			}
			var got [][][]byte
			var pgErr *pgwire.ErrorField
			for done := false; !done; {
				msg, err := rd.ReadMessage()
				if err != nil {
					t.Fatal(err)
				}
				switch msg.Type {
				case pgwire.MsgDataRow:
					fields, err := pgwire.ParseDataRow(msg.Data)
					if err != nil {
						t.Fatal(err)
					}
					if got = append(got, fields); len(got) == 5000 { // inside the second batch
						if err := pgwire.CancelQuery(srv.PgAddr(), c.PID, c.Secret); err != nil {
							t.Fatal(err)
						}
					}
				case pgwire.MsgErrorResponse:
					f, err := pgwire.ParseErrorResponse(msg.Data)
					if err != nil {
						t.Fatal(err)
					}
					pgErr = &f
				case pgwire.MsgReadyForQuery:
					done = true
				}
			}
			faultinject.Reset()
			if pgErr == nil || pgErr.Code != sciql.SQLStateQueryCanceled || len(got) >= len(wantHuge) {
				t.Fatalf("cancel mid-stream: error %+v after %d of %d rows", pgErr, len(got), len(wantHuge))
			}
			sameRows(t, "rows before the cancel", got, wantHuge[:len(got)])
			if res, err := c.SimpleQuery(`SELECT count(*) FROM wide`); err != nil || string(res[0].Rows[0][0]) != "12288" {
				t.Fatalf("session after cancel: %+v, %v", res, err)
			}
			settled()
		})
	}
}
