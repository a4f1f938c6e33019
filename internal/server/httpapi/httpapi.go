// Package httpapi exposes a SciQL database over HTTP/JSON for quick
// integrations that don't want a PostgreSQL driver: POST /query runs a
// statement and streams the result as one JSON document, /metrics
// serves Prometheus text, and /healthz + /readyz are the liveness and
// drain-aware readiness probes.
package httpapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"strconv"
	"sync/atomic"

	"repro/internal/telemetry"
	"repro/internal/value"
	"repro/sciql"
)

// QueryRequest is the POST /query body.
type QueryRequest struct {
	SQL string `json:"sql"`
	// Args bind named placeholders (?name / ?1) by name. JSON numbers
	// bind as INTEGER when integral, FLOAT otherwise; strings as
	// VARCHAR; booleans as BOOLEAN; null as NULL.
	Args map[string]any `json:"args,omitempty"`
}

// QueryResponse is the success body: a columnar header plus row values
// in natural JSON types (NULL as null, timestamps as strings).
type QueryResponse struct {
	Columns  []string `json:"columns,omitempty"`
	Types    []string `json:"types,omitempty"`
	Rows     [][]any  `json:"rows,omitempty"`
	RowCount int64    `json:"rowCount"`
}

// ErrorBody is the failure body; Code is the SQLSTATE class the pgwire
// surface would report for the same error.
type ErrorBody struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// Metrics counts HTTP API activity; instruments are nil-safe.
type Metrics struct {
	Requests *telemetry.Counter
	Errors   *telemetry.Counter
	Rows     *telemetry.Counter
}

// NewMetrics resolves the httpapi instrument set in reg.
func NewMetrics(reg *telemetry.Registry) *Metrics {
	if reg == nil {
		return &Metrics{}
	}
	return &Metrics{
		Requests: reg.Counter("http_requests_total"),
		Errors:   reg.Counter("http_errors_total"),
		Rows:     reg.Counter("http_rows_total"),
	}
}

// Handler serves the HTTP/JSON surface of one database.
type Handler struct {
	DB  *sciql.DB
	Log *slog.Logger
	Met *Metrics
	// Draining flips the readiness probe to 503 during shutdown.
	Draining *atomic.Bool
	// MaxBodyBytes bounds the request body; 0 means 1 MiB.
	MaxBodyBytes int64
}

func (h *Handler) met() *Metrics {
	if h.Met == nil {
		return &Metrics{}
	}
	return h.Met
}

// Mux builds the route table: /query, /metrics, /healthz, /readyz.
func (h *Handler) Mux(extra *telemetry.Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", h.handleQuery)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		if h.Draining != nil && h.Draining.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ready")
	})
	// /metrics renders the engine registry and, when provided, the
	// server's own protocol counters in one scrape.
	engine := h.DB.MetricsHandler()
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		engine.ServeHTTP(w, r)
		if extra != nil {
			extra.WritePrometheus(w)
		}
	})
	return mux
}

// handleQuery runs one statement (or script) and writes the JSON
// result. SELECT/EXPLAIN stream through a cursor; everything else
// goes through Exec.
func (h *Handler) handleQuery(w http.ResponseWriter, r *http.Request) {
	h.met().Requests.Inc()
	maxBody := h.MaxBodyBytes
	if maxBody <= 0 {
		maxBody = 1 << 20
	}
	var req QueryRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody))
	if err := dec.Decode(&req); err != nil {
		h.fail(w, http.StatusBadRequest, sciql.SQLStateGeneric, fmt.Errorf("invalid request body: %w", err))
		return
	}
	if req.SQL == "" {
		h.fail(w, http.StatusBadRequest, sciql.SQLStateGeneric, errors.New("missing \"sql\""))
		return
	}
	args, err := bindArgs(req.Args)
	if err != nil {
		h.fail(w, http.StatusBadRequest, sciql.SQLStateGeneric, err)
		return
	}

	// One compile (a statement-cache lookup, a parse on a miss) both
	// classifies the text and runs it.
	st, err := h.DB.Prepare(req.SQL)
	if err != nil {
		h.failErr(w, err) // 42601 for a parse error
		return
	}
	ctx := r.Context()
	var resp QueryResponse
	switch st.Kind() {
	case "select", "explain":
		rows, err := st.QueryContext(ctx, args...)
		if err != nil {
			h.failErr(w, err)
			return
		}
		defer rows.Close()
		resp.Columns, resp.Types = rows.Columns(), rows.ColumnTypeNames()
		for rows.Next() {
			if err := ctx.Err(); err != nil { // once per batch: the client is gone
				h.failErr(w, err)
				return
			}
			b, lo, hi := rows.Batch(encodeBatchRows)
			for r := lo; r < hi; r++ {
				out := make([]any, len(b.Vecs))
				for c := range out {
					out[c] = jsonValue(b.Value(c, r))
				}
				resp.Rows = append(resp.Rows, out)
			}
		}
		if err := rows.Err(); err != nil {
			h.failErr(w, err)
			return
		}
		resp.RowCount = int64(len(resp.Rows))
		h.met().Rows.Add(resp.RowCount)
		h.ok(w, &resp)
		return
	}
	res, err := st.ExecContext(ctx, args...)
	if err != nil {
		h.failErr(w, err)
		return
	}
	if res != nil {
		resp.RowCount = int64(res.NumRows())
	}
	h.ok(w, &resp)
}

// encodeBatchRows caps the rows boxed between two polls of the request
// context.
const encodeBatchRows = 4096

// ok sends the success body. It is marshaled before the status line is
// written, so a cell JSON cannot carry (an opaque handle) is still a
// 500 with a SQLSTATE body, never a 200 with no document.
func (h *Handler) ok(w http.ResponseWriter, resp *QueryResponse) {
	body, err := json.Marshal(resp)
	if err != nil {
		h.fail(w, http.StatusInternalServerError, sciql.SQLStateInternalError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(body, '\n'))
}

// failErr maps an engine error onto its SQLSTATE and an HTTP status.
func (h *Handler) failErr(w http.ResponseWriter, err error) {
	code := sciql.SQLState(err)
	status := http.StatusBadRequest
	switch code {
	case sciql.SQLStateTooManyConnections:
		status = http.StatusTooManyRequests
	case sciql.SQLStateOutOfMemory, sciql.SQLStateInternalError:
		status = http.StatusInternalServerError
	case sciql.SQLStateQueryCanceled:
		status = http.StatusRequestTimeout
	case sciql.SQLStateSerializationFailure:
		status = http.StatusConflict
	}
	h.fail(w, status, code, err)
}

func (h *Handler) fail(w http.ResponseWriter, status int, code string, err error) {
	h.met().Errors.Inc()
	if h.Log != nil {
		h.Log.Warn("http query failed", "code", code, "err", err.Error())
	}
	var body ErrorBody
	body.Error.Code = code
	body.Error.Message = err.Error()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(&body)
}

// bindArgs converts the JSON args map into engine arguments.
func bindArgs(in map[string]any) ([]sciql.Arg, error) {
	if len(in) == 0 {
		return nil, nil
	}
	args := make([]sciql.Arg, 0, len(in))
	for name, v := range in {
		switch t := v.(type) {
		case nil:
			args = append(args, sciql.Arg{Name: name, Value: value.NewNull(value.Unknown)})
		case bool:
			args = append(args, sciql.Arg{Name: name, Value: value.NewBool(t)})
		case float64:
			if t == float64(int64(t)) {
				args = append(args, sciql.Int(name, int64(t)))
			} else {
				args = append(args, sciql.Float(name, t))
			}
		case string:
			args = append(args, sciql.String(name, t))
		default:
			return nil, fmt.Errorf("arg %q: unsupported JSON type %T", name, v)
		}
	}
	return args, nil
}

// jsonValue maps an engine value onto its JSON representation. What a
// JSON number cannot carry travels as a string: integers beyond float64
// precision, and the non-finite floats as "NaN", "Infinity" and
// "-Infinity".
func jsonValue(v sciql.Value) any {
	switch g := sciql.GoValue(v).(type) {
	case int64:
		const maxExact = int64(1) << 53
		if g > maxExact || g < -maxExact {
			return strconv.FormatInt(g, 10)
		}
		return g
	case float64:
		switch {
		case math.IsNaN(g):
			return "NaN"
		case math.IsInf(g, 1):
			return "Infinity"
		case math.IsInf(g, -1):
			return "-Infinity"
		}
		return g
	default:
		return g
	}
}
