// Package pgwire implements the PostgreSQL frontend/backend wire
// protocol, version 3.0: the framing and message codec (this file),
// the server-side connection handler mapping the protocol onto
// sciql.Conn sessions (backend.go), the text-format value encoding
// (types.go), and a minimal frontend client used by the conformance
// suite and the sciqlbench network mode (client.go).
//
// The codec is deliberately paranoid: every length word is bounds-
// checked before allocation, payload buffers grow in bounded steps so
// an adversarial frame length cannot force a large allocation ahead
// of the bytes actually arriving, and every payload parser returns an
// error — never panics — on truncated or malformed input. The
// FuzzPgwireDecode target drives exactly this surface.
package pgwire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Protocol constants (PostgreSQL protocol 3.0).
const (
	// ProtocolVersion is the protocol 3.0 version word of a
	// StartupMessage.
	ProtocolVersion = 196608 // 3 << 16
	// sslRequestCode asks for TLS; sciqld answers 'N' (not supported).
	sslRequestCode = 80877103
	// cancelRequestCode carries a BackendKeyData pair to cancel the
	// in-flight query of another connection.
	cancelRequestCode = 80877102
	// gssRequestCode asks for GSSAPI encryption; answered 'N' too.
	gssRequestCode = 80877104
)

// Frontend message type bytes.
const (
	MsgQuery     = 'Q'
	MsgParse     = 'P'
	MsgBind      = 'B'
	MsgExecute   = 'E'
	MsgDescribe  = 'D'
	MsgClose     = 'C'
	MsgSync      = 'S'
	MsgFlush     = 'H'
	MsgTerminate = 'X'
	MsgPassword  = 'p'
)

// Backend message type bytes.
const (
	MsgAuth             = 'R'
	MsgParameterStatus  = 'S'
	MsgBackendKeyData   = 'K'
	MsgReadyForQuery    = 'Z'
	MsgRowDescription   = 'T'
	MsgDataRow          = 'D'
	MsgCommandComplete  = 'C'
	MsgErrorResponse    = 'E'
	MsgNoticeResponse   = 'N'
	MsgParseComplete    = '1'
	MsgBindComplete     = '2'
	MsgCloseComplete    = '3'
	MsgNoData           = 'n'
	MsgParamDescription = 't'
	MsgEmptyQuery       = 'I'
	MsgPortalSuspended  = 's'
)

// Framing limits. MaxFrameLen bounds any single message body; the
// decoder refuses longer frames before reading them. AllocStep bounds
// how much payload buffer is grown ahead of bytes actually read, so a
// forged length word on a short stream allocates at most one step.
const (
	MaxFrameLen = 16 << 20 // 16 MiB, matching this engine's row sizes
	allocStep   = 64 << 10
)

// ErrFrameTooLarge rejects a message whose declared length exceeds
// MaxFrameLen (or the Reader's tighter limit).
var ErrFrameTooLarge = errors.New("pgwire: frame length exceeds limit")

// Reader decodes protocol frames from a stream.
type Reader struct {
	r *bufio.Reader
	// maxLen caps accepted frame bodies; 0 means MaxFrameLen.
	maxLen int
	// bufCap tracks the largest payload buffer readN ever grew, so
	// tests can pin the bounded-allocation guarantee.
	bufCap int
	// hdr is ReadMessage's header scratch; a local would escape through
	// io.ReadFull and cost one allocation per message.
	hdr [5]byte
}

// BufCap reports the largest payload buffer this Reader has grown.
func (r *Reader) BufCap() int { return r.bufCap }

// NewReader wraps r in a frame decoder. maxLen <= 0 uses MaxFrameLen.
func NewReader(r io.Reader, maxLen int) *Reader {
	if maxLen <= 0 || maxLen > MaxFrameLen {
		maxLen = MaxFrameLen
	}
	if br, ok := r.(*bufio.Reader); ok {
		return &Reader{r: br, maxLen: maxLen}
	}
	return &Reader{r: bufio.NewReader(r), maxLen: maxLen}
}

// Peek exposes bufio.Peek for deadline-based idle polling: the
// connection read loop peeks one byte under a short deadline, and a
// timeout leaves the stream intact (nothing consumed) so the loop can
// poll its shutdown context and retry.
func (r *Reader) Peek(n int) ([]byte, error) { return r.r.Peek(n) }

// readN reads exactly n payload bytes, growing the buffer in
// allocStep-bounded increments so a forged length cannot force an
// up-front n-byte allocation on a stream that ends early.
func (r *Reader) readN(n int) ([]byte, error) {
	if n == 0 {
		return nil, nil
	}
	buf := make([]byte, 0, min(n, allocStep))
	for len(buf) < n {
		step := min(n-len(buf), allocStep)
		start := len(buf)
		buf = append(buf, make([]byte, step)...)
		if cap(buf) > r.bufCap {
			r.bufCap = cap(buf)
		}
		if _, err := io.ReadFull(r.r, buf[start:]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// Startup is the decoded first frame of a connection: a protocol 3.0
// startup with parameters, an SSL/GSS probe, or a cancel request.
type Startup struct {
	// Kind discriminates: "startup", "ssl", "gss", or "cancel".
	Kind string
	// Params holds the startup key/value pairs ("user", "database",
	// "application_name", ...) for Kind "startup".
	Params map[string]string
	// PID and Secret identify the connection to cancel for Kind
	// "cancel".
	PID    int32
	Secret int32
}

// ReadStartup decodes the untyped first frame of a connection.
func (r *Reader) ReadStartup() (*Startup, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r.r, lenBuf[:]); err != nil {
		return nil, err
	}
	frameLen := int(binary.BigEndian.Uint32(lenBuf[:]))
	if frameLen < 8 {
		return nil, fmt.Errorf("pgwire: startup frame length %d too short", frameLen)
	}
	if frameLen-4 > r.maxLen {
		return nil, ErrFrameTooLarge
	}
	body, err := r.readN(frameLen - 4)
	if err != nil {
		return nil, err
	}
	b := payload{data: body}
	code, err := b.int32()
	if err != nil {
		return nil, err
	}
	switch code {
	case sslRequestCode:
		return &Startup{Kind: "ssl"}, nil
	case gssRequestCode:
		return &Startup{Kind: "gss"}, nil
	case cancelRequestCode:
		pid, err := b.int32()
		if err != nil {
			return nil, err
		}
		secret, err := b.int32()
		if err != nil {
			return nil, err
		}
		return &Startup{Kind: "cancel", PID: pid, Secret: secret}, nil
	case ProtocolVersion:
		params := map[string]string{}
		for {
			key, err := b.cstring()
			if err != nil {
				return nil, err
			}
			if key == "" {
				break
			}
			val, err := b.cstring()
			if err != nil {
				return nil, err
			}
			params[key] = val
		}
		return &Startup{Kind: "startup", Params: params}, nil
	default:
		return nil, fmt.Errorf("pgwire: unsupported protocol version %d", code)
	}
}

// Msg is one typed protocol message: the type byte and its body.
type Msg struct {
	Type byte
	Data []byte
}

// ReadMessage decodes the next typed frame.
func (r *Reader) ReadMessage() (Msg, error) {
	hdr := r.hdr[:]
	if _, err := io.ReadFull(r.r, hdr); err != nil {
		return Msg{}, err
	}
	typ, frameLen := hdr[0], int(binary.BigEndian.Uint32(hdr[1:]))
	if frameLen < 4 {
		return Msg{}, fmt.Errorf("pgwire: message %q length %d too short", typ, frameLen)
	}
	if frameLen-4 > r.maxLen {
		return Msg{}, ErrFrameTooLarge
	}
	body, err := r.readN(frameLen - 4)
	if err != nil {
		return Msg{}, err
	}
	return Msg{Type: typ, Data: body}, nil
}

// --- payload parsing --------------------------------------------------------

// payload is a bounds-checked cursor over a message body. Every
// accessor returns an error past the end instead of panicking.
type payload struct {
	data []byte
	off  int
}

var errTruncated = errors.New("pgwire: truncated message")

func (p *payload) byte() (byte, error) {
	if p.off >= len(p.data) {
		return 0, errTruncated
	}
	b := p.data[p.off]
	p.off++
	return b, nil
}

func (p *payload) int16() (int16, error) {
	if p.off+2 > len(p.data) {
		return 0, errTruncated
	}
	v := int16(binary.BigEndian.Uint16(p.data[p.off:]))
	p.off += 2
	return v, nil
}

func (p *payload) int32() (int32, error) {
	if p.off+4 > len(p.data) {
		return 0, errTruncated
	}
	v := int32(binary.BigEndian.Uint32(p.data[p.off:]))
	p.off += 4
	return v, nil
}

func (p *payload) cstring() (string, error) {
	for i := p.off; i < len(p.data); i++ {
		if p.data[i] == 0 {
			s := string(p.data[p.off:i])
			p.off = i + 1
			return s, nil
		}
	}
	return "", errTruncated
}

// bytes returns the next n payload bytes without copying; n is
// validated against the remaining body, so a forged field length
// cannot reach past the frame.
func (p *payload) bytes(n int) ([]byte, error) {
	if n < 0 || p.off+n > len(p.data) {
		return nil, errTruncated
	}
	b := p.data[p.off : p.off+n]
	p.off += n
	return b, nil
}

// QueryMsg is a decoded simple-protocol Query ('Q').
type QueryMsg struct{ SQL string }

// ParseQuery decodes a Query body.
func ParseQuery(data []byte) (QueryMsg, error) {
	p := payload{data: data}
	sql, err := p.cstring()
	if err != nil {
		return QueryMsg{}, err
	}
	return QueryMsg{SQL: sql}, nil
}

// ParseMsg is a decoded extended-protocol Parse ('P').
type ParseMsg struct {
	Name     string
	SQL      string
	ParamOID []uint32
}

// maxDeclaredFields bounds count words in Parse/Bind frames. A count
// is also implicitly bounded by the frame body (each declared entry
// consumes at least two bytes), but rejecting absurd counts first
// keeps the error crisp and the pre-allocation zero.
const maxDeclaredFields = 65536

// ParseParse decodes a Parse body.
func ParseParse(data []byte) (ParseMsg, error) {
	p := payload{data: data}
	var m ParseMsg
	var err error
	if m.Name, err = p.cstring(); err != nil {
		return m, err
	}
	if m.SQL, err = p.cstring(); err != nil {
		return m, err
	}
	n, err := p.int16()
	if err != nil {
		return m, err
	}
	if n < 0 || int(n) > maxDeclaredFields {
		return m, fmt.Errorf("pgwire: Parse declares %d parameter types", n)
	}
	for i := 0; i < int(n); i++ {
		oid, err := p.int32()
		if err != nil {
			return m, err
		}
		m.ParamOID = append(m.ParamOID, uint32(oid))
	}
	return m, nil
}

// BindMsg is a decoded extended-protocol Bind ('B'). A nil entry in
// Params is a NULL parameter.
type BindMsg struct {
	Portal       string
	Statement    string
	ParamFormat  []int16
	Params       [][]byte
	ResultFormat []int16
}

// ParseBind decodes a Bind body.
func ParseBind(data []byte) (BindMsg, error) {
	p := payload{data: data}
	var m BindMsg
	var err error
	if m.Portal, err = p.cstring(); err != nil {
		return m, err
	}
	if m.Statement, err = p.cstring(); err != nil {
		return m, err
	}
	nf, err := p.int16()
	if err != nil {
		return m, err
	}
	if nf < 0 || int(nf) > maxDeclaredFields {
		return m, fmt.Errorf("pgwire: Bind declares %d parameter formats", nf)
	}
	for i := 0; i < int(nf); i++ {
		f, err := p.int16()
		if err != nil {
			return m, err
		}
		m.ParamFormat = append(m.ParamFormat, f)
	}
	np, err := p.int16()
	if err != nil {
		return m, err
	}
	if np < 0 || int(np) > maxDeclaredFields {
		return m, fmt.Errorf("pgwire: Bind declares %d parameters", np)
	}
	for i := 0; i < int(np); i++ {
		vlen, err := p.int32()
		if err != nil {
			return m, err
		}
		if vlen == -1 {
			m.Params = append(m.Params, nil)
			continue
		}
		v, err := p.bytes(int(vlen))
		if err != nil {
			return m, err
		}
		m.Params = append(m.Params, v)
	}
	nr, err := p.int16()
	if err != nil {
		return m, err
	}
	if nr < 0 || int(nr) > maxDeclaredFields {
		return m, fmt.Errorf("pgwire: Bind declares %d result formats", nr)
	}
	for i := 0; i < int(nr); i++ {
		f, err := p.int16()
		if err != nil {
			return m, err
		}
		m.ResultFormat = append(m.ResultFormat, f)
	}
	return m, nil
}

// DescribeMsg is a decoded Describe ('D'): Kind 'S' (statement) or
// 'P' (portal).
type DescribeMsg struct {
	Kind byte
	Name string
}

// ParseDescribe decodes a Describe body.
func ParseDescribe(data []byte) (DescribeMsg, error) {
	p := payload{data: data}
	kind, err := p.byte()
	if err != nil {
		return DescribeMsg{}, err
	}
	name, err := p.cstring()
	if err != nil {
		return DescribeMsg{}, err
	}
	return DescribeMsg{Kind: kind, Name: name}, nil
}

// ExecuteMsg is a decoded Execute ('E'): MaxRows 0 streams the whole
// portal; a positive limit suspends the portal after that many rows.
type ExecuteMsg struct {
	Portal  string
	MaxRows int32
}

// ParseExecute decodes an Execute body.
func ParseExecute(data []byte) (ExecuteMsg, error) {
	p := payload{data: data}
	portal, err := p.cstring()
	if err != nil {
		return ExecuteMsg{}, err
	}
	maxRows, err := p.int32()
	if err != nil {
		return ExecuteMsg{}, err
	}
	return ExecuteMsg{Portal: portal, MaxRows: maxRows}, nil
}

// CloseMsg is a decoded Close ('C'): Kind 'S' or 'P'.
type CloseMsg struct {
	Kind byte
	Name string
}

// ParseClose decodes a Close body.
func ParseClose(data []byte) (CloseMsg, error) {
	d, err := ParseDescribe(data)
	return CloseMsg{Kind: d.Kind, Name: d.Name}, err
}

// ParsePassword decodes a PasswordMessage ('p') body.
func ParsePassword(data []byte) (string, error) {
	p := payload{data: data}
	return p.cstring()
}

// ErrorField holds the decoded fields of an ErrorResponse /
// NoticeResponse.
type ErrorField struct {
	Severity string
	Code     string
	Message  string
	Detail   string
}

// ParseErrorResponse decodes an ErrorResponse body (client side).
func ParseErrorResponse(data []byte) (ErrorField, error) {
	p := payload{data: data}
	var f ErrorField
	for {
		t, err := p.byte()
		if err != nil {
			return f, err
		}
		if t == 0 {
			return f, nil
		}
		v, err := p.cstring()
		if err != nil {
			return f, err
		}
		switch t {
		case 'S':
			f.Severity = v
		case 'C':
			f.Code = v
		case 'M':
			f.Message = v
		case 'D':
			f.Detail = v
		}
	}
}

// RowDescriptionField is one column of a RowDescription.
type RowDescriptionField struct {
	Name   string
	OID    uint32
	Format int16
}

// ParseRowDescription decodes a RowDescription body (client side).
func ParseRowDescription(data []byte) ([]RowDescriptionField, error) {
	p := payload{data: data}
	n, err := p.int16()
	if err != nil {
		return nil, err
	}
	if n < 0 || int(n) > maxDeclaredFields {
		return nil, fmt.Errorf("pgwire: RowDescription declares %d fields", n)
	}
	fields := make([]RowDescriptionField, 0, min(int(n), 256))
	for i := 0; i < int(n); i++ {
		var f RowDescriptionField
		if f.Name, err = p.cstring(); err != nil {
			return nil, err
		}
		if _, err = p.int32(); err != nil { // table OID
			return nil, err
		}
		if _, err = p.int16(); err != nil { // attribute number
			return nil, err
		}
		oid, err := p.int32()
		if err != nil {
			return nil, err
		}
		f.OID = uint32(oid)
		if _, err = p.int16(); err != nil { // type length
			return nil, err
		}
		if _, err = p.int32(); err != nil { // type modifier
			return nil, err
		}
		if f.Format, err = p.int16(); err != nil {
			return nil, err
		}
		fields = append(fields, f)
	}
	return fields, nil
}

// ParseDataRow decodes a DataRow body (client side). A nil field is
// NULL.
func ParseDataRow(data []byte) ([][]byte, error) {
	p := payload{data: data}
	n, err := p.int16()
	if err != nil {
		return nil, err
	}
	if n < 0 || int(n) > maxDeclaredFields {
		return nil, fmt.Errorf("pgwire: DataRow declares %d fields", n)
	}
	fields := make([][]byte, 0, min(int(n), 256))
	for i := 0; i < int(n); i++ {
		vlen, err := p.int32()
		if err != nil {
			return nil, err
		}
		if vlen == -1 {
			fields = append(fields, nil)
			continue
		}
		v, err := p.bytes(int(vlen))
		if err != nil {
			return nil, err
		}
		fields = append(fields, v)
	}
	return fields, nil
}

// ParseBackendKeyData decodes a BackendKeyData body (client side).
func ParseBackendKeyData(data []byte) (pid, secret int32, err error) {
	p := payload{data: data}
	if pid, err = p.int32(); err != nil {
		return 0, 0, err
	}
	if secret, err = p.int32(); err != nil {
		return 0, 0, err
	}
	return pid, secret, nil
}

// ParseParameterStatus decodes a ParameterStatus body (client side).
func ParseParameterStatus(data []byte) (key, val string, err error) {
	p := payload{data: data}
	if key, err = p.cstring(); err != nil {
		return "", "", err
	}
	if val, err = p.cstring(); err != nil {
		return "", "", err
	}
	return key, val, nil
}

// --- message writing --------------------------------------------------------

// Writer encodes protocol frames onto a stream. A frame is built in
// place — header first, its length word patched when the body is
// complete — at the end of the output buffer, so it costs no copy and
// reaches the stream whole. Frames accumulate until Flush, matching the
// protocol's pipelining model (the backend flushes at ReadyForQuery,
// the frontend at Sync); a result larger than flushAt bytes goes out in
// pieces of about that size.
type Writer struct {
	w   io.Writer
	buf []byte // complete frames not yet written, then the one under construction
	// lenAt is the offset of the length word of the frame under
	// construction.
	lenAt int
	err   error // first write error; sticky, like bufio's
}

// Output buffer sizing: end hands the buffer to the stream once it
// holds flushAt bytes, and Flush lets go of a buffer that one oversized
// frame grew past keepCap.
const (
	flushAt = 16 << 10
	keepCap = 64 << 10
)

// NewWriter wraps w in a frame encoder.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// Flush writes buffered frames to the underlying stream.
func (w *Writer) Flush() error {
	if w.err == nil && len(w.buf) > 0 {
		_, w.err = w.w.Write(w.buf)
	}
	if cap(w.buf) > keepCap {
		w.buf = nil
	}
	w.buf = w.buf[:0]
	return w.err
}

// begin opens a typed frame: the type byte and a length word to patch.
func (w *Writer) begin(typ byte) {
	w.buf = append(w.buf, typ, 0, 0, 0, 0)
	w.lenAt = len(w.buf) - 4
}

// beginUntyped opens a frame without a type byte (startup-phase
// messages only).
func (w *Writer) beginUntyped() {
	w.buf = append(w.buf, 0, 0, 0, 0)
	w.lenAt = len(w.buf) - 4
}

func (w *Writer) addByte(b byte)   { w.buf = append(w.buf, b) }
func (w *Writer) addInt16(v int16) { w.buf = binary.BigEndian.AppendUint16(w.buf, uint16(v)) }
func (w *Writer) addInt32(v int32) { w.buf = binary.BigEndian.AppendUint32(w.buf, uint32(v)) }
func (w *Writer) addCString(s string) {
	w.buf = append(w.buf, s...)
	w.buf = append(w.buf, 0)
}
func (w *Writer) addBytes(b []byte) { w.buf = append(w.buf, b...) }

// end closes the frame under construction: its length word (which
// counts itself) is patched in place.
func (w *Writer) end() error {
	binary.BigEndian.PutUint32(w.buf[w.lenAt:], uint32(len(w.buf)-w.lenAt))
	if len(w.buf) >= flushAt {
		return w.Flush()
	}
	return w.err
}

// WriteRaw emits one typed message with the given body.
func (w *Writer) WriteRaw(typ byte, body []byte) error {
	w.begin(typ)
	w.addBytes(body)
	return w.end()
}

// --- backend messages -------------------------------------------------------

// WriteAuthOK emits AuthenticationOk.
func (w *Writer) WriteAuthOK() error {
	w.begin(MsgAuth)
	w.addInt32(0)
	return w.end()
}

// WriteAuthCleartext emits AuthenticationCleartextPassword.
func (w *Writer) WriteAuthCleartext() error {
	w.begin(MsgAuth)
	w.addInt32(3)
	return w.end()
}

// WriteParameterStatus emits one ParameterStatus pair.
func (w *Writer) WriteParameterStatus(key, val string) error {
	w.begin(MsgParameterStatus)
	w.addCString(key)
	w.addCString(val)
	return w.end()
}

// WriteBackendKeyData emits the cancel key of this connection.
func (w *Writer) WriteBackendKeyData(pid, secret int32) error {
	w.begin(MsgBackendKeyData)
	w.addInt32(pid)
	w.addInt32(secret)
	return w.end()
}

// WriteReady emits ReadyForQuery with the transaction status: 'I'
// idle, 'T' in transaction, 'E' in failed transaction.
func (w *Writer) WriteReady(status byte) error {
	w.begin(MsgReadyForQuery)
	w.addByte(status)
	if err := w.end(); err != nil {
		return err
	}
	return w.Flush()
}

// Column describes one result column for WriteRowDescription.
type Column struct {
	Name string
	OID  uint32
}

// WriteRowDescription emits the result shape of a query.
func (w *Writer) WriteRowDescription(cols []Column) error {
	w.begin(MsgRowDescription)
	w.addInt16(int16(len(cols)))
	for _, c := range cols {
		w.addCString(c.Name)
		w.addInt32(0)  // table OID: not a catalog relation
		w.addInt16(0)  // attribute number
		w.addInt32(int32(c.OID))
		w.addInt16(-1) // type length: variable
		w.addInt32(-1) // type modifier
		w.addInt16(0)  // format: text
	}
	return w.end()
}

// WriteDataRow emits one row; nil fields are NULL.
func (w *Writer) WriteDataRow(fields [][]byte) error {
	w.begin(MsgDataRow)
	w.addInt16(int16(len(fields)))
	for _, f := range fields {
		if f == nil {
			w.addInt32(-1)
			continue
		}
		w.addInt32(int32(len(f)))
		w.addBytes(f)
	}
	return w.end()
}

// WriteCommandComplete emits the command tag of a finished statement.
func (w *Writer) WriteCommandComplete(tag string) error {
	w.begin(MsgCommandComplete)
	w.addCString(tag)
	return w.end()
}

// WriteError emits an ErrorResponse with severity ERROR.
func (w *Writer) WriteError(code, message string) error {
	w.begin(MsgErrorResponse)
	w.addByte('S')
	w.addCString("ERROR")
	w.addByte('V')
	w.addCString("ERROR")
	w.addByte('C')
	w.addCString(code)
	w.addByte('M')
	w.addCString(message)
	w.addByte(0)
	return w.end()
}

// WriteParseComplete emits ParseComplete.
func (w *Writer) WriteParseComplete() error {
	w.begin(MsgParseComplete)
	return w.end()
}

// WriteBindComplete emits BindComplete.
func (w *Writer) WriteBindComplete() error {
	w.begin(MsgBindComplete)
	return w.end()
}

// WriteCloseComplete emits CloseComplete.
func (w *Writer) WriteCloseComplete() error {
	w.begin(MsgCloseComplete)
	return w.end()
}

// WriteNoData emits NoData (Describe of a rowless statement).
func (w *Writer) WriteNoData() error {
	w.begin(MsgNoData)
	return w.end()
}

// WriteParamDescription emits the declared parameter types of a
// prepared statement.
func (w *Writer) WriteParamDescription(oids []uint32) error {
	w.begin(MsgParamDescription)
	w.addInt16(int16(len(oids)))
	for _, oid := range oids {
		w.addInt32(int32(oid))
	}
	return w.end()
}

// WriteEmptyQuery emits EmptyQueryResponse.
func (w *Writer) WriteEmptyQuery() error {
	w.begin(MsgEmptyQuery)
	return w.end()
}

// WritePortalSuspended emits PortalSuspended (row-limited Execute).
func (w *Writer) WritePortalSuspended() error {
	w.begin(MsgPortalSuspended)
	return w.end()
}

// --- frontend messages ------------------------------------------------------

// WriteStartup emits a protocol 3.0 StartupMessage (untyped frame).
func (w *Writer) WriteStartup(params map[string]string) error {
	w.beginUntyped()
	w.addInt32(ProtocolVersion)
	for k, v := range params {
		w.addCString(k)
		w.addCString(v)
	}
	w.addByte(0)
	return w.end()
}

// WriteCancelRequest emits a CancelRequest (untyped frame).
func (w *Writer) WriteCancelRequest(pid, secret int32) error {
	w.beginUntyped()
	w.addInt32(cancelRequestCode)
	w.addInt32(pid)
	w.addInt32(secret)
	if err := w.end(); err != nil {
		return err
	}
	return w.Flush()
}

// WriteQuery emits a simple-protocol Query.
func (w *Writer) WriteQuery(sql string) error {
	w.begin(MsgQuery)
	w.addCString(sql)
	if err := w.end(); err != nil {
		return err
	}
	return w.Flush()
}

// WriteParse emits an extended-protocol Parse.
func (w *Writer) WriteParse(name, sql string, paramOIDs []uint32) error {
	w.begin(MsgParse)
	w.addCString(name)
	w.addCString(sql)
	w.addInt16(int16(len(paramOIDs)))
	for _, oid := range paramOIDs {
		w.addInt32(int32(oid))
	}
	return w.end()
}

// WriteBind emits an extended-protocol Bind with text-format
// parameters and results; nil params are NULL.
func (w *Writer) WriteBind(portal, statement string, params [][]byte) error {
	w.begin(MsgBind)
	w.addCString(portal)
	w.addCString(statement)
	w.addInt16(0) // all parameters in text format
	w.addInt16(int16(len(params)))
	for _, p := range params {
		if p == nil {
			w.addInt32(-1)
			continue
		}
		w.addInt32(int32(len(p)))
		w.addBytes(p)
	}
	w.addInt16(0) // all results in text format
	return w.end()
}

// WriteDescribe emits Describe for a statement ('S') or portal ('P').
func (w *Writer) WriteDescribe(kind byte, name string) error {
	w.begin(MsgDescribe)
	w.addByte(kind)
	w.addCString(name)
	return w.end()
}

// WriteExecute emits Execute with a row limit (0 = unlimited).
func (w *Writer) WriteExecute(portal string, maxRows int32) error {
	w.begin(MsgExecute)
	w.addCString(portal)
	w.addInt32(maxRows)
	return w.end()
}

// WriteClose emits Close for a statement ('S') or portal ('P').
func (w *Writer) WriteClose(kind byte, name string) error {
	w.begin(MsgClose)
	w.addByte(kind)
	w.addCString(name)
	return w.end()
}

// WriteSync emits Sync and flushes.
func (w *Writer) WriteSync() error {
	w.begin(MsgSync)
	if err := w.end(); err != nil {
		return err
	}
	return w.Flush()
}

// WritePassword emits a PasswordMessage and flushes.
func (w *Writer) WritePassword(pw string) error {
	w.begin(MsgPassword)
	w.addCString(pw)
	if err := w.end(); err != nil {
		return err
	}
	return w.Flush()
}

// WriteTerminate emits Terminate and flushes.
func (w *Writer) WriteTerminate() error {
	w.begin(MsgTerminate)
	if err := w.end(); err != nil {
		return err
	}
	return w.Flush()
}
