package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/server"
	"repro/internal/server/pgwire"
	"repro/internal/value"
	"repro/sciql"
)

// The protocol conformance suite: scripted request/response sessions
// over a real TCP socket, asserting the same invariants as
// sciql/fault_test.go — byte-identical results against the in-process
// path, clean typed errors with the right SQLSTATE, and no leaked
// snapshot or goroutine after disconnects and drains.

// newTestServer starts a sciqld on ephemeral ports around a fresh DB
// loaded with the walkthrough-style schema. mutate (optional) adjusts
// the config before Start.
func newTestServer(t *testing.T, mutate func(*server.Config)) (*server.Server, *sciql.DB) {
	t.Helper()
	db := sciql.Open()
	db.MustExec(`
		CREATE ARRAY matrix (x INTEGER DIMENSION[4], y INTEGER DIMENSION[4], v FLOAT DEFAULT 0.0);
		UPDATE matrix SET v = x * 4 + y;
		CREATE ARRAY diagonal (x INTEGER DIMENSION[4], y INTEGER DIMENSION[4] CHECK(x = y), v FLOAT DEFAULT 0.0);
		UPDATE diagonal SET v = x + y;
		CREATE ARRAY big (x INTEGER DIMENSION[64], y INTEGER DIMENSION[64], v FLOAT DEFAULT 0.0);
		UPDATE big SET v = x * 64 + y;
		CREATE TABLE mtable (x INTEGER, y INTEGER, v FLOAT);
		INSERT INTO mtable SELECT x, y, v FROM matrix;
	`)
	cfg := server.Config{PgAddr: "127.0.0.1:0", HTTPAddr: "127.0.0.1:0", ShutdownGrace: 2 * time.Second}
	if mutate != nil {
		mutate(&cfg)
	}
	srv := server.New(db, cfg)
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		db.Close()
	})
	return srv, db
}

func dial(t *testing.T, srv *server.Server) *pgwire.Client {
	t.Helper()
	c, err := pgwire.Dial(srv.PgAddr(), pgwire.ClientConfig{User: "test"})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func pinned(db *sciql.DB) int64 { return db.Metrics()["snapshots_pinned"] }

// waitForPinned polls until snapshots_pinned drops to zero.
func waitForPinned(t *testing.T, db *sciql.DB) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if pinned(db) == 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("snapshots still pinned: %d", pinned(db))
}

// waitForGoroutines polls until the goroutine count settles back to
// (roughly) the baseline, failing the test on a leak.
func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<16)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutine leak: %d running, baseline %d\n%s", runtime.NumGoroutine(), baseline, buf[:n])
}

// wantPgError asserts err is a *PgError carrying the SQLSTATE code.
func wantPgError(t *testing.T, err error, code string) *pgwire.PgError {
	t.Helper()
	var pe *pgwire.PgError
	if !errors.As(err, &pe) {
		t.Fatalf("error = %v (%T), want *PgError %s", err, err, code)
	}
	if pe.Code != code {
		t.Fatalf("SQLSTATE = %s (%s), want %s", pe.Code, pe.Message, code)
	}
	return pe
}

// paperQueries is the walkthrough slice the parity test replays over
// the wire: scans, slicing, aggregation, joins, coercion output.
var paperQueries = []string{
	`SELECT x, y, v FROM matrix`,
	`SELECT v FROM matrix WHERE x = 1 AND y = 2`,
	`SELECT x, y, v FROM matrix[1:3][0:2]`,
	`SELECT sum(v) FROM matrix`,
	`SELECT x, count(*) FROM matrix GROUP BY x`,
	`SELECT x, y, v FROM diagonal`,
	`SELECT m.x, m.y, m.v FROM matrix AS m JOIN mtable AS t ON m.x = t.x AND m.y = t.y`,
	`SELECT x, y, v FROM big WHERE v > 4000`,
}

// TestWireParity runs the paper-walkthrough queries over pgwire and
// asserts every field is byte-identical to the in-process sciql.DB
// path rendered through the same text encoding.
func TestWireParity(t *testing.T) {
	srv, db := newTestServer(t, nil)
	c := dial(t, srv)
	defer c.Close()

	for _, q := range paperQueries {
		t.Run(q, func(t *testing.T) {
			want := inProcessRows(t, db, q)
			res, err := c.SimpleQuery(q)
			if err != nil {
				t.Fatal(err)
			}
			if len(res) != 1 {
				t.Fatalf("got %d results, want 1", len(res))
			}
			got := res[0].Rows
			if len(got) != len(want) {
				t.Fatalf("rows = %d, want %d", len(got), len(want))
			}
			for i := range want {
				if len(got[i]) != len(want[i]) {
					t.Fatalf("row %d: %d fields, want %d", i, len(got[i]), len(want[i]))
				}
				for j := range want[i] {
					if !bytes.Equal(got[i][j], want[i][j]) {
						t.Fatalf("row %d field %d: %q != in-process %q", i, j, got[i][j], want[i][j])
					}
				}
			}
			if wantTag := fmt.Sprintf("SELECT %d", len(want)); res[0].Tag != wantTag {
				t.Fatalf("tag = %q, want %q", res[0].Tag, wantTag)
			}
		})
	}
}

// inProcessRows materializes a query through the library path, encoded
// with the shared wire text encoder (nil = NULL).
func inProcessRows(t *testing.T, db *sciql.DB, q string) [][][]byte {
	t.Helper()
	rows, err := db.QueryContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	var out [][][]byte
	for rows.Next() {
		vals := rows.Values()
		fields := make([][]byte, len(vals))
		for i, v := range vals {
			fields[i] = pgwire.EncodeText(v)
		}
		out = append(out, fields)
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSimpleMultiStatement covers batch semantics: statements run in
// order, the first error aborts the remainder, ReadyForQuery closes
// the cycle either way.
func TestSimpleMultiStatement(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	c := dial(t, srv)
	defer c.Close()

	res, err := c.SimpleQuery(`SELECT count(*) FROM matrix; SELECT sum(v) FROM diagonal`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("results = %d, want 2", len(res))
	}
	if string(res[0].Rows[0][0]) != "16" {
		t.Fatalf("count = %s", res[0].Rows[0][0])
	}

	// Error in the middle: first statement's result arrives, the rest
	// of the batch is dropped.
	res, err = c.SimpleQuery(`SELECT count(*) FROM matrix; SELECT * FROM nosuch; SELECT 1 FROM matrix`)
	wantPgError(t, err, sciql.SQLStateGeneric)
	if len(res) != 1 {
		t.Fatalf("results before error = %d, want 1", len(res))
	}
	if c.TxStatus != 'I' {
		t.Fatalf("tx status = %c, want I", c.TxStatus)
	}

	// Parse errors classify as 42601.
	_, err = c.SimpleQuery(`SELEKT 1`)
	wantPgError(t, err, sciql.SQLStateSyntaxError)

	// Empty query string gets EmptyQueryResponse, not an error.
	res, err = c.SimpleQuery(`  ;  `)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Tag != "" {
		t.Fatalf("empty query results = %+v", res)
	}
}

// TestExtendedProtocol covers Parse/Bind/Execute: unnamed one-shots
// with parameters, named statements reused across binds, row-limited
// executes with portal suspension, and describe metadata.
func TestExtendedProtocol(t *testing.T) {
	srv, db := newTestServer(t, nil)
	c := dial(t, srv)
	defer c.Close()

	// Unnamed parse/bind/execute with positional parameters.
	res, err := c.ExtQuery(`SELECT v FROM matrix WHERE x = ?1 AND y = ?2`, []byte("1"), []byte("2"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || len(res[0].Rows) != 1 {
		t.Fatalf("ext query results = %+v", res)
	}
	if got := string(res[0].Rows[0][0]); got != "6" {
		t.Fatalf("v(1,2) = %s, want 6", got)
	}
	if len(res[0].Columns) != 1 || res[0].Columns[0].Name != "v" {
		t.Fatalf("columns = %+v", res[0].Columns)
	}

	// Named statement, reused with different bindings.
	rd, wr := c.Raw()
	_ = rd
	if err := errors.Join(
		wr.WriteParse("pick", `SELECT v FROM matrix WHERE x = ?1 AND y = ?2`, []uint32{pgwire.OIDInt8, pgwire.OIDInt8}),
		wr.WriteSync(), wr.Flush(),
	); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReadCycle(); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 3; i++ {
		arg1 := []byte(fmt.Sprint(i))
		if err := errors.Join(
			wr.WriteBind("", "pick", [][]byte{arg1, arg1}),
			wr.WriteExecute("", 0),
			wr.WriteSync(), wr.Flush(),
		); err != nil {
			t.Fatal(err)
		}
		res, err := c.ReadCycle()
		if err != nil {
			t.Fatal(err)
		}
		if got := string(res[0].Rows[0][0]); got != fmt.Sprint(i*4+i) {
			t.Fatalf("v(%d,%d) = %s", i, i, got)
		}
	}

	// Row-limited execute: 16-row result in chunks of 6 → two
	// suspensions, then completion; the cursor survives suspension.
	if err := errors.Join(
		wr.WriteParse("", `SELECT x, y, v FROM matrix`, nil),
		wr.WriteBind("p1", "", nil),
		wr.WriteSync(), wr.Flush(),
	); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReadCycle(); err != nil {
		t.Fatal(err)
	}
	var rows int
	for i := 0; ; i++ {
		if err := errors.Join(wr.WriteExecute("p1", 6), wr.WriteSync(), wr.Flush()); err != nil {
			t.Fatal(err)
		}
		res, err := c.ReadCycle()
		if err != nil {
			t.Fatal(err)
		}
		rows += len(res[0].Rows)
		if !res[0].Suspended {
			if res[0].Tag != "SELECT 4" {
				t.Fatalf("final tag = %q", res[0].Tag)
			}
			break
		}
		if i > 4 {
			t.Fatal("portal never completed")
		}
	}
	if rows != 16 {
		t.Fatalf("portal streamed %d rows, want 16", rows)
	}

	// Unknown statement → 26000 and skip-until-Sync.
	if err := errors.Join(
		wr.WriteBind("", "nosuchstmt", nil),
		wr.WriteExecute("", 0),
		wr.WriteSync(), wr.Flush(),
	); err != nil {
		t.Fatal(err)
	}
	_, err = c.ReadCycle()
	wantPgError(t, err, "26000")

	// Session still healthy afterwards.
	if _, err := c.SimpleQuery(`SELECT 1 FROM matrix WHERE x = 0 AND y = 0`); err != nil {
		t.Fatal(err)
	}
	waitForPinned(t, db)
}

// TestTransactions covers BEGIN/COMMIT over the wire: status
// reporting, the failed-transaction gate (25P02), COMMIT-of-failed →
// ROLLBACK, and first-committer-wins surfacing as SQLSTATE 40001.
func TestTransactions(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	c1 := dial(t, srv)
	defer c1.Close()
	c2 := dial(t, srv)
	defer c2.Close()

	// Status transitions I → T → I.
	if _, err := c1.SimpleQuery(`BEGIN`); err != nil {
		t.Fatal(err)
	}
	if c1.TxStatus != 'T' {
		t.Fatalf("status after BEGIN = %c", c1.TxStatus)
	}
	if _, err := c1.SimpleQuery(`UPDATE matrix SET v = v + 1`); err != nil {
		t.Fatal(err)
	}
	res, err := c1.SimpleQuery(`COMMIT`)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Tag != "COMMIT" || c1.TxStatus != 'I' {
		t.Fatalf("commit tag=%q status=%c", res[0].Tag, c1.TxStatus)
	}

	// Failed transaction: error flips status to E, statements bounce
	// with 25P02, COMMIT rolls back.
	if _, err := c1.SimpleQuery(`BEGIN`); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.SimpleQuery(`SELECT * FROM nosuch`); err == nil {
		t.Fatal("want error")
	}
	if c1.TxStatus != 'E' {
		t.Fatalf("status after in-tx error = %c, want E", c1.TxStatus)
	}
	_, err = c1.SimpleQuery(`SELECT count(*) FROM matrix`)
	wantPgError(t, err, sciql.SQLStateInFailedTransaction)
	res, err = c1.SimpleQuery(`COMMIT`)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Tag != "ROLLBACK" || c1.TxStatus != 'I' {
		t.Fatalf("failed-tx commit tag=%q status=%c, want ROLLBACK/I", res[0].Tag, c1.TxStatus)
	}

	// First-committer-wins across two wire sessions → 40001.
	for _, c := range []*pgwire.Client{c1, c2} {
		if _, err := c.SimpleQuery(`BEGIN`); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c1.SimpleQuery(`UPDATE diagonal SET v = v + 10`); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.SimpleQuery(`UPDATE diagonal SET v = v + 20`); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.SimpleQuery(`COMMIT`); err != nil {
		t.Fatal(err)
	}
	_, err = c2.SimpleQuery(`COMMIT`)
	wantPgError(t, err, sciql.SQLStateSerializationFailure)
	if c2.TxStatus != 'I' {
		t.Fatalf("status after conflicted COMMIT = %c, want I", c2.TxStatus)
	}
}

// TestCancellation: a CancelRequest with the right key aborts the
// in-flight statement (57014); a wrong secret is ignored.
func TestCancellation(t *testing.T) {
	defer faultinject.Reset()
	srv, db := newTestServer(t, nil)
	c := dial(t, srv)
	defer c.Close()

	// The fault point fires once at scan start, so a single long delay
	// pins the statement in a cancelable window; after the sleep the
	// streaming scan polls its context and aborts.
	faultinject.Arm("scan.chunk", faultinject.Spec{Kind: faultinject.Delay, Delay: time.Second})
	type outcome struct {
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		_, err := c.SimpleQuery(`SELECT x, y, v FROM big`)
		done <- outcome{err}
	}()
	time.Sleep(50 * time.Millisecond)

	// Wrong secret first: must be ignored.
	if err := pgwire.CancelQuery(srv.PgAddr(), c.PID, c.Secret+1); err != nil {
		t.Fatal(err)
	}
	select {
	case o := <-done:
		t.Fatalf("query ended after bogus cancel: %v", o.err)
	case <-time.After(50 * time.Millisecond):
	}

	if err := pgwire.CancelQuery(srv.PgAddr(), c.PID, c.Secret); err != nil {
		t.Fatal(err)
	}
	select {
	case o := <-done:
		wantPgError(t, o.err, sciql.SQLStateQueryCanceled)
	case <-time.After(10 * time.Second):
		t.Fatal("cancel did not interrupt the query")
	}
	faultinject.Reset()

	// The session survives cancellation.
	if _, err := c.SimpleQuery(`SELECT count(*) FROM matrix`); err != nil {
		t.Fatal(err)
	}
	waitForPinned(t, db)
}

// TestAdmission covers both admission layers: the connection cap
// (rejected at startup with 53300) and the statement governor
// (ErrAdmission → 53300 on a healthy connection).
func TestAdmission(t *testing.T) {
	defer faultinject.Reset()
	srv, _ := newTestServer(t, func(cfg *server.Config) {
		cfg.MaxConns = 1
		cfg.MaxConcurrentQueries = 1
	})
	c := dial(t, srv)
	defer c.Close()

	// Second connection bounces at startup.
	_, err := pgwire.Dial(srv.PgAddr(), pgwire.ClientConfig{User: "x"})
	wantPgError(t, err, sciql.SQLStateTooManyConnections)

	// Statement admission: HTTP requests share the governor, so a
	// slow wire query makes a concurrent HTTP query bounce with the
	// same SQLSTATE in the JSON error body.
	// One long delay at scan start keeps the admission slot held well
	// past the default 1s admission-queue deadline, so the HTTP probe
	// below queues, times out, and bounces.
	faultinject.Arm("scan.chunk", faultinject.Spec{Kind: faultinject.Delay, Delay: 1500 * time.Millisecond})
	done := make(chan error, 1)
	go func() {
		_, err := c.SimpleQuery(`SELECT x, y, v FROM big`)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	body := postQuery(t, srv, `{"sql": "SELECT count(*) FROM matrix"}`, http.StatusTooManyRequests)
	if !strings.Contains(body, sciql.SQLStateTooManyConnections) {
		t.Fatalf("http admission error body = %s", body)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestMidStreamDisconnect severs the socket while DataRows stream and
// asserts the fault-suite invariant: no pinned snapshot, no leaked
// goroutine, and the server keeps serving other clients.
func TestMidStreamDisconnect(t *testing.T) {
	defer faultinject.Reset()
	srv, db := newTestServer(t, nil)

	// Churn one connection first so lazily started runtime goroutines
	// (pollers etc.) are part of the baseline.
	warm := dial(t, srv)
	if _, err := warm.SimpleQuery(`SELECT count(*) FROM matrix`); err != nil {
		t.Fatal(err)
	}
	warm.Close()
	time.Sleep(50 * time.Millisecond)
	baseline := runtime.NumGoroutine()

	c := dial(t, srv)
	// Slow the scan so the disconnect lands mid-stream.
	faultinject.Arm("scan.chunk", faultinject.Spec{Kind: faultinject.Delay, Delay: 5 * time.Millisecond})
	rd, wr := c.Raw()
	if err := errors.Join(wr.WriteQuery(`SELECT x, y, v FROM big`), wr.Flush()); err != nil {
		t.Fatal(err)
	}
	// Read a handful of messages, then sever the connection abruptly.
	for i := 0; i < 5; i++ {
		if _, err := rd.ReadMessage(); err != nil {
			t.Fatal(err)
		}
	}
	c.CloseAbrupt()
	faultinject.Reset()

	waitForPinned(t, db)
	waitForGoroutines(t, baseline)

	// Server still healthy.
	c2 := dial(t, srv)
	defer c2.Close()
	if _, err := c2.SimpleQuery(`SELECT count(*) FROM big`); err != nil {
		t.Fatal(err)
	}
}

// TestDrainShutdown covers graceful shutdown: idle connections get
// SQLSTATE 57P01, new connections are refused, and afterwards nothing
// is pinned and the goroutine count returns to the pre-server
// baseline.
func TestDrainShutdown(t *testing.T) {
	baseline := runtime.NumGoroutine()
	db := sciql.Open()
	db.MustExec(`
		CREATE ARRAY m (x INTEGER DIMENSION[8], v FLOAT DEFAULT 0.0);
		UPDATE m SET v = x * 2;
	`)
	srv := server.New(db, server.Config{
		PgAddr: "127.0.0.1:0", HTTPAddr: "127.0.0.1:0",
		MaxConcurrentQueries: 4, ShutdownGrace: 2 * time.Second,
	})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}

	idle := dial2(t, srv.PgAddr())
	busy := dial2(t, srv.PgAddr())
	if _, err := busy.SimpleQuery(`SELECT sum(v) FROM m`); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// Both connections were told goodbye with 57P01 before close.
	for name, c := range map[string]*pgwire.Client{"idle": idle, "busy": busy} {
		rd, _ := c.Raw()
		msg, err := rd.ReadMessage()
		if err != nil {
			t.Fatalf("%s: read shutdown notice: %v", name, err)
		}
		if msg.Type != pgwire.MsgErrorResponse {
			t.Fatalf("%s: got %q, want ErrorResponse", name, msg.Type)
		}
		f, err := pgwire.ParseErrorResponse(msg.Data)
		if err != nil {
			t.Fatal(err)
		}
		if f.Code != sciql.SQLStateAdminShutdown {
			t.Fatalf("%s: shutdown SQLSTATE = %s, want 57P01", name, f.Code)
		}
		c.CloseAbrupt()
	}

	if pinned(db) != 0 {
		t.Fatalf("snapshots pinned after shutdown: %d", pinned(db))
	}
	waitForGoroutines(t, baseline)
	db.Close()
}

func dial2(t *testing.T, addr string) *pgwire.Client {
	t.Helper()
	c, err := pgwire.Dial(addr, pgwire.ClientConfig{User: "test"})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestPasswordAuth covers the cleartext exchange: wrong password →
// 28P01, right password → normal session.
func TestPasswordAuth(t *testing.T) {
	srv, _ := newTestServer(t, func(cfg *server.Config) { cfg.Password = "sesame" })

	_, err := pgwire.Dial(srv.PgAddr(), pgwire.ClientConfig{User: "x", Password: "wrong"})
	wantPgError(t, err, sciql.SQLStateInvalidPassword)

	c, err := pgwire.Dial(srv.PgAddr(), pgwire.ClientConfig{User: "x", Password: "sesame"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.SimpleQuery(`SELECT count(*) FROM matrix`); err != nil {
		t.Fatal(err)
	}
}

// TestHTTPAPI covers the JSON surface: query happy path, error
// mapping, probes and the merged metrics scrape.
func TestHTTPAPI(t *testing.T) {
	srv, _ := newTestServer(t, nil)

	body := postQuery(t, srv, `{"sql": "SELECT x, v FROM matrix WHERE y = ?y", "args": {"y": 1}}`, http.StatusOK)
	var resp struct {
		Columns  []string `json:"columns"`
		Rows     [][]any  `json:"rows"`
		RowCount int64    `json:"rowCount"`
	}
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatalf("bad JSON %q: %v", body, err)
	}
	if resp.RowCount != 4 || len(resp.Rows) != 4 || resp.Columns[1] != "v" {
		t.Fatalf("response = %+v", resp)
	}
	if got := resp.Rows[2][1].(float64); got != 9 {
		t.Fatalf("v(2,1) = %v, want 9", got)
	}

	// DML path reports affected rows and SQLSTATE-coded errors.
	postQuery(t, srv, `{"sql": "UPDATE matrix SET v = v + 1"}`, http.StatusOK)
	errBody := postQuery(t, srv, `{"sql": "SELEKT"}`, http.StatusBadRequest)
	if !strings.Contains(errBody, sciql.SQLStateSyntaxError) {
		t.Fatalf("syntax error body = %s", errBody)
	}

	for path, want := range map[string]int{"/healthz": 200, "/readyz": 200} {
		r, err := http.Get("http://" + srv.HTTPAddr() + path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != want {
			t.Fatalf("%s = %d, want %d", path, r.StatusCode, want)
		}
	}

	r, err := http.Get("http://" + srv.HTTPAddr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	buf := make([]byte, 1<<16)
	for {
		n, err := r.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	r.Body.Close()
	metrics := sb.String()
	for _, want := range []string{"queries_total", "http_requests_total"} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, metrics)
		}
	}
}

func postQuery(t *testing.T, srv *server.Server, body string, wantStatus int) string {
	t.Helper()
	r, err := http.Post("http://"+srv.HTTPAddr()+"/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 1<<16)
	for {
		n, err := r.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	if r.StatusCode != wantStatus {
		t.Fatalf("POST /query = %d (%s), want %d", r.StatusCode, sb.String(), wantStatus)
	}
	return sb.String()
}

// TestNonFiniteFloats is the regression test for results holding NaN or
// ±Inf. POST /query used to answer 200 with an empty body (json refuses
// the values and the encode error was dropped); it now sends them as
// the strings "NaN", "Infinity" and "-Infinity", the convention
// integers beyond ±2^53 already follow. pgwire used to send Go's
// "+Inf"/"-Inf", which libpq-family clients reject for float8; it now
// sends PostgreSQL's spelling.
func TestNonFiniteFloats(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	c := dial(t, srv)
	defer c.Close()
	for q, want := range map[string]string{
		`SELECT SQRT(v - 100) FROM matrix WHERE x = 1 AND y = 1`:       "NaN",
		`SELECT EXP(v * 1000) FROM matrix WHERE x = 1 AND y = 1`:       "Infinity",
		`SELECT 0 - EXP(v * 1000) FROM matrix WHERE x = 1 AND y = 1`:   "-Infinity",
		`SELECT SQRT(v - 100), EXP(v * 1000) FROM matrix WHERE v >= 5`: "NaN", // a streamed batch
	} {
		res, err := c.SimpleQuery(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if got := string(res[0].Rows[0][0]); got != want {
			t.Fatalf("pgwire %s: field = %q, want %q", q, got, want)
		}
		req, _ := json.Marshal(map[string]string{"sql": q})
		var resp struct {
			Rows     [][]any `json:"rows"`
			RowCount int     `json:"rowCount"`
		}
		body := postQuery(t, srv, string(req), http.StatusOK)
		if err := json.Unmarshal([]byte(body), &resp); err != nil {
			t.Fatalf("http %s: body %q: %v", q, body, err)
		}
		if resp.RowCount == 0 || len(resp.Rows) != resp.RowCount || resp.Rows[0][0] != want {
			t.Fatalf("http %s: body = %s, want %q first", q, body, want)
		}
	}
}

// TestHTTPEncodeFailure: a cell encoding/json cannot carry (an opaque
// handle) is a 500 with a SQLSTATE body, never a 200 with half a
// document — the body is complete before the status line is chosen.
func TestHTTPEncodeFailure(t *testing.T) {
	srv, db := newTestServer(t, nil)
	db.RegisterExternal("opaque", func([]sciql.Value) (sciql.Value, error) {
		return sciql.Value{Typ: value.Array, A: make(chan int)}, nil
	})
	db.MustExec(`CREATE FUNCTION opaque (v FLOAT) RETURNS FLOAT EXTERNAL NAME 'opaque'`)
	body := postQuery(t, srv, `{"sql": "SELECT opaque(v) FROM matrix WHERE x = 0"}`, http.StatusInternalServerError)
	if !strings.Contains(body, sciql.SQLStateInternalError) {
		t.Fatalf("encode failure body = %s", body)
	}
}
