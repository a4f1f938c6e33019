package pgwire

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
	"repro/sciql"
)

// Timing constants of the connection read loop. idlePoll is the
// deadline granularity at which an idle connection polls its shutdown
// context; frameTimeout bounds how long a started frame may take to
// arrive in full (slow-loris containment).
const (
	idlePoll     = 250 * time.Millisecond
	frameTimeout = 30 * time.Second
)

// Metrics is the per-protocol instrument set, resolved once against
// the server's registry; all instruments are nil-safe no-ops when
// unset.
type Metrics struct {
	Connections         *telemetry.Counter
	ConnectionsRejected *telemetry.Counter
	ConnectionsActive   *telemetry.Gauge
	Queries             *telemetry.Counter
	Errors              *telemetry.Counter
	RowsSent            *telemetry.Counter
	Cancels             *telemetry.Counter
}

// NewMetrics resolves the pgwire instrument set in reg.
func NewMetrics(reg *telemetry.Registry) *Metrics {
	if reg == nil {
		return &Metrics{}
	}
	return &Metrics{
		Connections:         reg.Counter("pgwire_connections_total"),
		ConnectionsRejected: reg.Counter("pgwire_connections_rejected_total"),
		ConnectionsActive:   reg.Gauge("pgwire_connections_active"),
		Queries:             reg.Counter("pgwire_queries_total"),
		Errors:              reg.Counter("pgwire_errors_total"),
		RowsSent:            reg.Counter("pgwire_rows_sent_total"),
		Cancels:             reg.Counter("pgwire_cancels_total"),
	}
}

// Backend serves PostgreSQL wire-protocol connections on top of a
// sciql.DB: each accepted connection becomes one sciql.Conn session.
type Backend struct {
	DB *sciql.DB
	// Password, when non-empty, arms cleartext-password
	// authentication at startup.
	Password string
	// Admit gates a connection after its startup message; returning
	// false rejects it with SQLSTATE 53300 (max connections reached or
	// the server is draining). nil admits everything.
	Admit func() bool
	// Log receives connection-lifecycle events; nil discards them.
	Log *slog.Logger
	// Met counts protocol activity; nil-safe when unset.
	Met *Metrics

	pidSeq  atomic.Int32
	cancels sync.Map // pid int32 -> *connEntry
}

// connEntry is the cancel-registry record of one live connection.
type connEntry struct {
	secret int32
	conn   *serverConn
}

func (b *Backend) met() *Metrics {
	if b.Met == nil {
		return &Metrics{}
	}
	return b.Met
}

func (b *Backend) logger() *slog.Logger {
	if b.Log == nil {
		return slog.New(slog.DiscardHandler)
	}
	return b.Log
}

// Serve runs one connection to completion. ctx is the server's
// graceful-shutdown context: when it fires, the connection finishes
// its in-flight statement, then notifies the client (SQLSTATE 57P01)
// and closes. Serve always closes nc.
func (b *Backend) Serve(ctx context.Context, nc net.Conn) {
	defer nc.Close()
	rd := NewReader(nc, 0)
	wr := NewWriter(nc)

	st, err := b.negotiate(rd, wr, nc)
	if err != nil || st == nil {
		return // cancel request served, probe refused, or broken startup
	}
	if b.Admit != nil && !b.Admit() {
		b.met().ConnectionsRejected.Inc()
		wr.WriteError(sciql.SQLStateTooManyConnections, "too many connections")
		wr.Flush()
		return
	}
	if !b.authenticate(rd, wr, nc) {
		return
	}

	sess, err := b.DB.Conn(ctx)
	if err != nil {
		wr.WriteError(sciql.SQLStateTooManyConnections, err.Error())
		wr.Flush()
		return
	}

	connCtx, connCancel := context.WithCancel(context.Background())
	c := &serverConn{
		b: b, nc: nc, rd: rd, wr: wr, sess: sess,
		ctx: ctx, connCtx: connCtx, connCancel: connCancel,
		prepared: map[string]*prepared{},
		portals:  map[string]*portal{},
		pid:      b.pidSeq.Add(1),
		secret:   randomSecret(),
		user:     st.Params["user"],
	}
	b.cancels.Store(c.pid, &connEntry{secret: c.secret, conn: c})
	b.met().Connections.Inc()
	b.met().ConnectionsActive.Add(1)
	log := b.logger()
	log.Info("pgwire connection open", "pid", c.pid, "remote", nc.RemoteAddr().String(), "user", c.user)
	defer func() {
		c.teardown()
		b.cancels.Delete(c.pid)
		b.met().ConnectionsActive.Add(-1)
		log.Info("pgwire connection closed", "pid", c.pid)
	}()

	if err := c.greet(); err != nil {
		return
	}
	c.readLoop()
}

// negotiate reads startup frames until a protocol 3.0 startup arrives,
// answering SSL/GSS probes with 'N' and serving cancel requests.
// Returns nil when the connection is done (cancel served or error).
func (b *Backend) negotiate(rd *Reader, wr *Writer, nc net.Conn) (*Startup, error) {
	for tries := 0; tries < 3; tries++ {
		nc.SetReadDeadline(time.Now().Add(frameTimeout))
		st, err := rd.ReadStartup()
		if err != nil {
			return nil, err
		}
		switch st.Kind {
		case "ssl", "gss":
			if _, err := nc.Write([]byte{'N'}); err != nil {
				return nil, err
			}
		case "cancel":
			b.serveCancel(st.PID, st.Secret)
			return nil, nil
		default:
			return st, nil
		}
	}
	return nil, errors.New("pgwire: too many negotiation probes")
}

// serveCancel handles a CancelRequest: if the (pid, secret) pair
// matches a live connection, its in-flight statement is canceled. Per
// protocol, no response is sent either way.
func (b *Backend) serveCancel(pid, secret int32) {
	e, ok := b.cancels.Load(pid)
	if !ok {
		return
	}
	entry := e.(*connEntry)
	if entry.secret != secret {
		return
	}
	b.met().Cancels.Inc()
	entry.conn.cancelStatement()
}

// authenticate runs the startup password exchange when armed.
func (b *Backend) authenticate(rd *Reader, wr *Writer, nc net.Conn) bool {
	if b.Password == "" {
		return true
	}
	if err := wr.WriteAuthCleartext(); err != nil || wr.Flush() != nil {
		return false
	}
	nc.SetReadDeadline(time.Now().Add(frameTimeout))
	msg, err := rd.ReadMessage()
	if err != nil || msg.Type != MsgPassword {
		return false
	}
	pw, err := ParsePassword(msg.Data)
	if err != nil || pw != b.Password {
		wr.WriteError(sciql.SQLStateInvalidPassword, "password authentication failed")
		wr.Flush()
		return false
	}
	return true
}

func randomSecret() int32 {
	var buf [4]byte
	rand.Read(buf[:])
	return int32(binary.BigEndian.Uint32(buf[:]))
}

// --- per-connection state ---------------------------------------------------

// prepared is one named (or unnamed) prepared statement.
type prepared struct {
	name      string
	sql       string
	kind      string // stmt.Kind()
	stmt      *sciql.Stmt
	paramOIDs []uint32
}

// portal is one bound (and possibly partially executed) portal. The
// cursor and its cancelable context live as long as the portal, so a
// row-limited Execute can suspend and resume it.
type portal struct {
	stmt   *prepared
	args   []sciql.Arg
	rows   *sciql.Rows
	cols   []Column
	ctx    context.Context
	cancel context.CancelFunc
	done   bool
}

func (p *portal) close() {
	if p.rows != nil {
		p.rows.Close()
		p.rows = nil
	}
	if p.cancel != nil {
		p.cancel()
		p.cancel = nil
	}
}

// serverConn is the state of one wire-protocol connection.
type serverConn struct {
	b    *Backend
	nc   net.Conn
	rd   *Reader
	wr   *Writer
	sess *sciql.Conn
	user string

	// ctx is the server's graceful-shutdown context (polled between
	// messages); connCtx covers this connection's statements and is
	// canceled at teardown so force-closing the socket also aborts any
	// in-flight execution.
	ctx        context.Context
	connCtx    context.Context
	connCancel context.CancelFunc

	prepared map[string]*prepared
	portals  map[string]*portal
	failedTx bool
	extErr   bool // extended-protocol error: skip until Sync

	pid    int32
	secret int32

	// stmtMu guards stmtCancel, the cancel hook of the statement (or
	// portal execute) currently running; CancelRequest connections
	// call cancelStatement from their own goroutine.
	stmtMu     sync.Mutex
	stmtCancel context.CancelFunc
}

// teardown releases everything the connection holds: open portals
// (cursors pin catalog snapshots), the session (rolls back any open
// transaction), and the statement context.
func (c *serverConn) teardown() {
	for name, p := range c.portals {
		p.close()
		delete(c.portals, name)
	}
	c.connCancel()
	c.sess.Close()
}

// cancelStatement aborts the statement currently executing, if any.
func (c *serverConn) cancelStatement() {
	c.stmtMu.Lock()
	cancel := c.stmtCancel
	c.stmtMu.Unlock()
	if cancel != nil {
		cancel()
	}
}

func (c *serverConn) setCancel(fn context.CancelFunc) {
	c.stmtMu.Lock()
	c.stmtCancel = fn
	c.stmtMu.Unlock()
}

// greet completes the startup sequence after authentication.
func (c *serverConn) greet() error {
	c.wr.WriteAuthOK()
	for _, kv := range [][2]string{
		{"server_version", "16.0 (sciqld)"},
		{"server_encoding", "UTF8"},
		{"client_encoding", "UTF8"},
		{"DateStyle", "ISO, MDY"},
		{"integer_datetimes", "on"},
		{"standard_conforming_strings", "on"},
	} {
		c.wr.WriteParameterStatus(kv[0], kv[1])
	}
	c.wr.WriteBackendKeyData(c.pid, c.secret)
	return c.wr.WriteReady('I')
}

// readLoop is the connection's message pump. Between messages it
// waits under a short read deadline and polls the server's shutdown
// context, so an idle connection notices a drain promptly without a
// dedicated goroutine; a statement in flight is never interrupted by
// the poll because the loop only runs between messages.
func (c *serverConn) readLoop() {
	for {
		if c.ctx.Err() != nil {
			c.wr.WriteError(sciql.SQLStateAdminShutdown, "terminating connection: server shutting down")
			c.wr.Flush()
			return
		}
		c.nc.SetReadDeadline(time.Now().Add(idlePoll))
		if _, err := c.rd.Peek(1); err != nil {
			if isTimeout(err) {
				continue
			}
			return
		}
		c.nc.SetReadDeadline(time.Now().Add(frameTimeout))
		msg, err := c.rd.ReadMessage()
		if err != nil {
			return
		}
		if done := c.dispatch(msg); done {
			return
		}
	}
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// dispatch handles one message; true means the connection is done.
func (c *serverConn) dispatch(msg Msg) bool {
	// After an extended-protocol error, skip until Sync (protocol
	// requirement: the frontend's pipelined messages are void).
	if c.extErr && msg.Type != MsgSync && msg.Type != MsgTerminate && msg.Type != MsgQuery {
		return false
	}
	switch msg.Type {
	case MsgTerminate:
		return true
	case MsgQuery:
		q, err := ParseQuery(msg.Data)
		if err != nil {
			c.sendProtoError(err)
			return true
		}
		c.extErr = false
		c.handleSimpleQuery(q.SQL)
	case MsgParse:
		c.handleParse(msg.Data)
	case MsgBind:
		c.handleBind(msg.Data)
	case MsgDescribe:
		c.handleDescribe(msg.Data)
	case MsgExecute:
		c.handleExecute(msg.Data)
	case MsgClose:
		c.handleClose(msg.Data)
	case MsgSync:
		c.extErr = false
		c.ready()
	case MsgFlush:
		c.wr.Flush()
	case MsgPassword:
		// Stray password message outside the startup exchange.
	default:
		c.sendProtoError(fmt.Errorf("unsupported message type %q", msg.Type))
		return true
	}
	return false
}

// ready emits ReadyForQuery with the session's transaction status.
func (c *serverConn) ready() {
	status := byte('I')
	if c.sess.InTx() {
		status = 'T'
		if c.failedTx {
			status = 'E'
		}
	}
	c.wr.WriteReady(status)
}

// sendProtoError reports a protocol-level (not statement-level) error.
func (c *serverConn) sendProtoError(err error) {
	c.b.met().Errors.Inc()
	c.wr.WriteError("08P01", err.Error())
	c.wr.Flush()
}

// sendStmtError reports a statement error with its SQLSTATE class and
// marks the transaction failed when one is open.
func (c *serverConn) sendStmtError(code string, err error) {
	c.b.met().Errors.Inc()
	c.wr.WriteError(code, err.Error())
	if c.sess.InTx() {
		c.failedTx = true
	}
}

// stmtContext opens the cancelable context one statement runs under
// and registers it for CancelRequest. The returned release func must
// run when the statement finishes (but see portals, which keep their
// context for their own lifetime).
func (c *serverConn) stmtContext() (context.Context, func()) {
	ctx, cancel := context.WithCancel(c.connCtx)
	c.setCancel(cancel)
	return ctx, func() {
		c.setCancel(nil)
		cancel()
	}
}

// --- simple query protocol --------------------------------------------------

// handleSimpleQuery runs a possibly multi-statement query string:
// statements run in order, each with its own RowDescription/DataRow
// or CommandComplete; the first error aborts the remainder, and
// ReadyForQuery always closes the cycle.
func (c *serverConn) handleSimpleQuery(sql string) {
	pieces := SplitStatements(sql)
	if len(pieces) == 0 {
		c.wr.WriteEmptyQuery()
		c.ready()
		return
	}
	for _, piece := range pieces {
		if !c.runSimpleStatement(piece) {
			break
		}
	}
	c.ready()
}

// runSimpleStatement executes one statement of a simple query; false
// aborts the rest of the batch. The text is compiled once — Prepare is
// one statement-cache lookup, and a parse only on a miss — and the
// compiled statement both classifies it and runs it.
func (c *serverConn) runSimpleStatement(sql string) bool {
	c.b.met().Queries.Inc()
	st, err := c.sess.Prepare(sql)
	if err != nil {
		c.sendStmtError(sciql.SQLState(err), err) // 42601 for a parse error
		return false
	}
	if st.NumStatements() == 0 {
		c.wr.WriteEmptyQuery()
		return true
	}
	verb := st.TxVerb()

	// Failed-transaction gate (PostgreSQL semantics): after an error
	// inside a transaction block, only COMMIT/ROLLBACK get through.
	if c.failedTx && (verb == "" || verb == "BEGIN") {
		c.sendStmtError(sciql.SQLStateInFailedTransaction,
			errors.New("current transaction is aborted, commands ignored until end of transaction block"))
		return false
	}
	if verb != "" {
		return c.runTxStatement(st, verb)
	}

	ctx, release := c.stmtContext()
	defer release()
	switch st.Kind() {
	case "select", "explain":
		rows, err := st.QueryContext(ctx)
		if err != nil {
			c.sendStmtError(sciql.SQLState(err), err)
			return false
		}
		n, err := c.sendRows(ctx, rows, 0, true)
		rows.Close()
		if err != nil {
			c.sendStmtError(sciql.SQLState(err), err)
			return false
		}
		c.wr.WriteCommandComplete("SELECT " + strconv.FormatInt(n, 10))
	default:
		if _, err := st.ExecContext(ctx); err != nil {
			c.sendStmtError(sciql.SQLState(err), err)
			return false
		}
		c.wr.WriteCommandComplete(CommandTag(sql))
	}
	return true
}

// runTxStatement handles BEGIN/COMMIT/ROLLBACK with the failed-
// transaction bookkeeping: COMMIT of a failed transaction rolls back
// (and says so), matching PostgreSQL.
func (c *serverConn) runTxStatement(st *sciql.Stmt, verb string) bool {
	ctx, release := c.stmtContext()
	defer release()
	var err error
	if verb == "COMMIT" && c.failedTx {
		verb = "ROLLBACK"
		_, err = c.sess.ExecContext(ctx, verb)
	} else {
		_, err = st.ExecContext(ctx)
	}
	if err != nil {
		c.failedTx = false // COMMIT/ROLLBACK end the transaction either way
		c.sendStmtError(sciql.SQLState(err), err)
		return false
	}
	if verb != "BEGIN" {
		c.failedTx = false
	}
	c.wr.WriteCommandComplete(verb)
	return true
}

// sendBatchRows caps how many rows sendRows encodes between two polls
// of the statement context and two flushes of the row counter: a
// result that is one large batch (a materialized dataset) still stops
// within that many rows of a cancel.
const sendBatchRows = 4096

// sendRows streams cursor rows as DataRow messages: the row
// description first (when withDesc), then up to maxRows rows (0 = no
// limit), encoded batch-wise straight from the cursor's columns.
// Returns rows sent and the cursor/write error, if any. ctx is the
// statement's (or portal's) context, polled once per batch; telemetry
// flushes once per batch too (the hotloopflush discipline).
func (c *serverConn) sendRows(ctx context.Context, rows *sciql.Rows, maxRows int64, withDesc bool) (int64, error) {
	if withDesc {
		if err := c.wr.WriteRowDescription(rowColumns(rows)); err != nil {
			return 0, err
		}
	}
	var sent int64
	for (maxRows <= 0 || sent < maxRows) && rows.Next() {
		if err := ctx.Err(); err != nil {
			return sent, err
		}
		want := int64(sendBatchRows)
		if maxRows > 0 {
			want = min(want, maxRows-sent)
		}
		b, lo, hi := rows.Batch(int(want))
		err := c.wr.WriteDataRows(b, lo, hi)
		sent += int64(hi - lo)
		c.b.met().RowsSent.Add(int64(hi - lo))
		if err != nil {
			return sent, err
		}
	}
	return sent, rows.Err()
}

// rowColumns derives the wire row description from an open cursor.
func rowColumns(rows *sciql.Rows) []Column {
	names := rows.Columns()
	typs := rows.ColumnTypeNames()
	cols := make([]Column, len(names))
	for i, n := range names {
		cols[i] = Column{Name: n, OID: typeOIDName(typs[i])}
	}
	return cols
}

// typeOIDName maps a SciQL type name (sciql.Rows.ColumnTypeNames)
// onto a wire OID; unknown streaming expression types travel as text.
func typeOIDName(name string) uint32 {
	switch name {
	case "INTEGER":
		return OIDInt8
	case "FLOAT":
		return OIDFloat8
	case "BOOLEAN":
		return OIDBool
	case "TIMESTAMP":
		return OIDTimestamp
	default:
		return OIDText
	}
}

// --- extended query protocol ------------------------------------------------

// extFail reports an extended-protocol error and arms skip-to-Sync.
func (c *serverConn) extFail(code string, err error) {
	c.sendStmtError(code, err)
	c.extErr = true
	c.wr.Flush()
}

func (c *serverConn) handleParse(data []byte) {
	m, err := ParseParse(data)
	if err != nil {
		c.extFail(sciql.SQLStateSyntaxError, err)
		return
	}
	if m.Name != "" {
		if _, exists := c.prepared[m.Name]; exists {
			c.extFail("42P05", fmt.Errorf("prepared statement %q already exists", m.Name))
			return
		}
	}
	st, err := c.sess.Prepare(m.SQL)
	if err != nil {
		c.extFail(sciql.SQLState(err), err) // 42601 for a parse error
		return
	}
	if st.NumStatements() > 1 {
		c.extFail(sciql.SQLStateSyntaxError, errors.New("cannot insert multiple commands into a prepared statement"))
		return
	}
	c.prepared[m.Name] = &prepared{name: m.Name, sql: m.SQL, kind: st.Kind(), stmt: st, paramOIDs: m.ParamOID}
	c.wr.WriteParseComplete()
}

func (c *serverConn) handleBind(data []byte) {
	m, err := ParseBind(data)
	if err != nil {
		c.extFail(sciql.SQLStateSyntaxError, err)
		return
	}
	stmt, ok := c.prepared[m.Statement]
	if !ok {
		c.extFail("26000", fmt.Errorf("prepared statement %q does not exist", m.Statement))
		return
	}
	for _, f := range m.ParamFormat {
		if f != 0 {
			c.extFail("0A000", errors.New("binary parameter format is not supported"))
			return
		}
	}
	for _, f := range m.ResultFormat {
		if f != 0 {
			c.extFail("0A000", errors.New("binary result format is not supported"))
			return
		}
	}
	args := make([]sciql.Arg, len(m.Params))
	for i, raw := range m.Params {
		var oid uint32
		if i < len(stmt.paramOIDs) {
			oid = stmt.paramOIDs[i]
		}
		v, err := DecodeParam(raw, oid)
		if err != nil {
			c.extFail("22P02", fmt.Errorf("parameter $%d: %v", i+1, err))
			return
		}
		// Positional wire parameters bind the engine's ?N ordinals.
		args[i] = sciql.Arg{Name: strconv.Itoa(i + 1), Value: v}
	}
	if m.Portal != "" {
		if _, exists := c.portals[m.Portal]; exists {
			c.extFail("42P03", fmt.Errorf("portal %q already exists", m.Portal))
			return
		}
	} else if old, ok := c.portals[""]; ok {
		old.close() // rebinding the unnamed portal discards the previous one
		delete(c.portals, "")
	}
	c.portals[m.Portal] = &portal{stmt: stmt, args: args}
	c.wr.WriteBindComplete()
}

// startPortal opens the portal's cursor on first use (Describe or
// Execute): the portal owns a cancelable context for its whole
// lifetime, so a row-limited Execute can suspend and a later Execute
// resume the same cursor.
func (c *serverConn) startPortal(p *portal) error {
	if p.rows != nil || p.done {
		return nil
	}
	ctx, cancel := context.WithCancel(c.connCtx)
	rows, err := p.stmt.stmt.QueryContext(ctx, p.args...)
	if err != nil {
		cancel()
		return err
	}
	p.rows, p.ctx, p.cancel = rows, ctx, cancel
	p.cols = rowColumns(rows)
	return nil
}

func (c *serverConn) handleDescribe(data []byte) {
	m, err := ParseDescribe(data)
	if err != nil {
		c.extFail(sciql.SQLStateSyntaxError, err)
		return
	}
	switch m.Kind {
	case 'S':
		stmt, ok := c.prepared[m.Name]
		if !ok {
			c.extFail("26000", fmt.Errorf("prepared statement %q does not exist", m.Name))
			return
		}
		c.wr.WriteParamDescription(stmt.paramOIDs)
		// Describing a parameterless SELECT opens (and closes) a
		// throwaway cursor to learn the row shape; with parameters
		// pending the shape is unknown until Bind, so NoData.
		if (stmt.kind == "select" || stmt.kind == "explain") && len(stmt.paramOIDs) == 0 {
			rows, err := stmt.stmt.QueryContext(c.connCtx)
			if err == nil {
				c.wr.WriteRowDescription(rowColumns(rows))
				rows.Close()
				return
			}
		}
		c.wr.WriteNoData()
	case 'P':
		p, ok := c.portals[m.Name]
		if !ok {
			c.extFail("34000", fmt.Errorf("portal %q does not exist", m.Name))
			return
		}
		if p.stmt.kind == "select" || p.stmt.kind == "explain" {
			if err := c.startPortal(p); err != nil {
				c.extFail(sciql.SQLState(err), err)
				return
			}
			c.wr.WriteRowDescription(p.cols)
			return
		}
		c.wr.WriteNoData()
	default:
		c.extFail(sciql.SQLStateSyntaxError, fmt.Errorf("invalid Describe kind %q", m.Kind))
	}
}

func (c *serverConn) handleExecute(data []byte) {
	m, err := ParseExecute(data)
	if err != nil {
		c.extFail(sciql.SQLStateSyntaxError, err)
		return
	}
	p, ok := c.portals[m.Portal]
	if !ok {
		c.extFail("34000", fmt.Errorf("portal %q does not exist", m.Portal))
		return
	}
	c.b.met().Queries.Inc()

	if p.stmt.kind != "select" && p.stmt.kind != "explain" {
		if p.done {
			c.wr.WriteCommandComplete(CommandTag(p.stmt.sql))
			return
		}
		ctx, release := c.stmtContext()
		defer release()
		if _, err := p.stmt.stmt.ExecContext(ctx, p.args...); err != nil {
			c.extFail(sciql.SQLState(err), err)
			return
		}
		p.done = true
		c.wr.WriteCommandComplete(CommandTag(p.stmt.sql))
		return
	}

	if p.done {
		c.wr.WriteCommandComplete("SELECT 0")
		return
	}
	if err := c.startPortal(p); err != nil {
		c.extFail(sciql.SQLState(err), err)
		return
	}
	// Register the portal's context as the cancel target while this
	// Execute streams; the context itself survives a suspend.
	c.setCancel(p.cancel)
	defer c.setCancel(nil)
	n, err := c.sendRows(p.ctx, p.rows, int64(m.MaxRows), false)
	if err != nil {
		p.close()
		p.done = true
		c.extFail(sciql.SQLState(err), err)
		return
	}
	if m.MaxRows > 0 && n >= int64(m.MaxRows) {
		c.wr.WritePortalSuspended()
		return
	}
	p.close()
	p.done = true
	c.wr.WriteCommandComplete("SELECT " + strconv.FormatInt(n, 10))
}

func (c *serverConn) handleClose(data []byte) {
	m, err := ParseClose(data)
	if err != nil {
		c.extFail(sciql.SQLStateSyntaxError, err)
		return
	}
	switch m.Kind {
	case 'S':
		delete(c.prepared, m.Name)
	case 'P':
		if p, ok := c.portals[m.Name]; ok {
			p.close()
			delete(c.portals, m.Name)
		}
	}
	c.wr.WriteCloseComplete()
}
