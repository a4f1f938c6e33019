// Package server assembles sciqld: a PostgreSQL wire-protocol
// listener and an HTTP/JSON listener over one sciql.DB, with governor
// configuration, structured request logs fed by the engine trace
// hook, and graceful drain-based shutdown.
package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server/httpapi"
	"repro/internal/server/pgwire"
	"repro/internal/telemetry"
	"repro/sciql"
)

// Config carries everything sciqld needs to listen. The governor
// fields surface the sciql.DB knobs from PR 9; zero values leave the
// corresponding knob at its engine default (off).
type Config struct {
	// PgAddr is the wire-protocol listen address ("127.0.0.1:5433");
	// empty disables the pgwire listener.
	PgAddr string
	// HTTPAddr is the HTTP/JSON listen address; empty disables it.
	HTTPAddr string
	// Password arms cleartext-password authentication on pgwire
	// connections; empty means trust.
	Password string

	// MaxConns caps concurrently open pgwire connections; 0 = unlimited.
	MaxConns int
	// MaxConcurrentQueries, AdmissionQueueDepth/Wait, MemoryLimit,
	// StatementTimeout and SlowQueryThreshold configure the engine
	// governor (sciql.DB setters of the same names).
	MaxConcurrentQueries int
	AdmissionQueueDepth  int
	AdmissionQueueWait   time.Duration
	MemoryLimitPerQuery  int64
	MemoryLimitTotal     int64
	StatementTimeout     time.Duration
	SlowQueryThreshold   time.Duration

	// ShutdownGrace bounds graceful drain before in-flight work is
	// cut off; 0 means 10s.
	ShutdownGrace time.Duration

	// Log receives server and request logs; nil discards them.
	Log *slog.Logger
}

// Server is a running sciqld instance.
type Server struct {
	cfg Config
	db  *sciql.DB
	log *slog.Logger

	reg     *telemetry.Registry
	pgMet   *pgwire.Metrics
	httpMet *httpapi.Metrics

	backend *pgwire.Backend
	httpsrv *http.Server

	pgLis   net.Listener
	httpLis net.Listener

	// shutCtx fires at the start of graceful shutdown; idle pgwire
	// read loops poll it.
	shutCtx    context.Context
	shutCancel context.CancelFunc

	draining atomic.Bool
	conns    atomic.Int64 // live pgwire connections (admission gate)

	wg      sync.WaitGroup // pgwire connection handlers
	lisWG   sync.WaitGroup // accept loops
	closed  atomic.Bool
	trackMu sync.Mutex
	tracked map[net.Conn]struct{}
}

// New wires a server around db, applying the governor configuration.
func New(db *sciql.DB, cfg Config) *Server {
	log := cfg.Log
	if log == nil {
		log = slog.New(slog.DiscardHandler)
	}
	if cfg.ShutdownGrace <= 0 {
		cfg.ShutdownGrace = 10 * time.Second
	}
	reg := telemetry.NewRegistry()
	s := &Server{
		cfg:     cfg,
		db:      db,
		log:     log,
		reg:     reg,
		pgMet:   pgwire.NewMetrics(reg),
		httpMet: httpapi.NewMetrics(reg),
		tracked: map[net.Conn]struct{}{},
	}
	s.shutCtx, s.shutCancel = context.WithCancel(context.Background())

	if cfg.MaxConcurrentQueries > 0 {
		db.SetMaxConcurrentQueries(cfg.MaxConcurrentQueries)
	}
	if cfg.AdmissionQueueDepth > 0 || cfg.AdmissionQueueWait > 0 {
		db.SetAdmissionQueue(cfg.AdmissionQueueDepth, cfg.AdmissionQueueWait)
	}
	if cfg.MemoryLimitPerQuery > 0 || cfg.MemoryLimitTotal > 0 {
		db.SetMemoryLimit(cfg.MemoryLimitPerQuery, cfg.MemoryLimitTotal)
	}
	if cfg.StatementTimeout > 0 {
		db.SetStatementTimeout(cfg.StatementTimeout)
	}
	if cfg.SlowQueryThreshold > 0 {
		db.SetSlowQueryThreshold(cfg.SlowQueryThreshold, nil)
	}
	// Engine trace events become structured request logs: one line
	// per statement close, with duration, rows and error class.
	db.SetTraceHook(func(ev sciql.TraceEvent) {
		level := slog.LevelInfo
		if ev.Err != nil {
			level = slog.LevelWarn
		}
		if ev.Phase != sciql.TraceClose || !log.Enabled(context.Background(), level) {
			return
		}
		attrs := []any{
			"kind", ev.Kind,
			"query", truncateSQL(ev.Query),
			"duration", ev.D.String(),
			"rows", ev.Rows,
		}
		if ev.Err != nil {
			attrs = append(attrs, "err", ev.Err.Error(), "sqlstate", sciql.SQLState(ev.Err))
			log.Warn("statement", attrs...)
			return
		}
		log.Info("statement", attrs...)
	})

	s.backend = &pgwire.Backend{
		DB:       db,
		Password: cfg.Password,
		Admit:    s.admitConn,
		Log:      log,
		Met:      s.pgMet,
	}
	return s
}

func truncateSQL(sql string) string {
	const max = 200
	if len(sql) > max {
		return sql[:max] + "..."
	}
	return sql
}

// Registry exposes the server's own protocol counters (for tests and
// the /metrics merge).
func (s *Server) Registry() *telemetry.Registry { return s.reg }

// admitConn gates one pgwire connection after startup.
func (s *Server) admitConn() bool {
	if s.draining.Load() {
		return false
	}
	// conns already counts the connection being admitted (the accept
	// loop increments before Serve), hence the strict inequality.
	if s.cfg.MaxConns > 0 && s.conns.Load() > int64(s.cfg.MaxConns) {
		return false
	}
	return true
}

// Start opens the configured listeners and begins serving. It returns
// once listening (use Addrs for the bound addresses) — serving
// continues on background goroutines until Shutdown.
func (s *Server) Start() error {
	if s.cfg.PgAddr == "" && s.cfg.HTTPAddr == "" {
		return errors.New("server: no listen addresses configured")
	}
	if s.cfg.PgAddr != "" {
		lis, err := net.Listen("tcp", s.cfg.PgAddr)
		if err != nil {
			return fmt.Errorf("pgwire listen: %w", err)
		}
		s.pgLis = lis
		s.lisWG.Add(1)
		go s.acceptLoop(lis)
		s.log.Info("pgwire listening", "addr", lis.Addr().String())
	}
	if s.cfg.HTTPAddr != "" {
		lis, err := net.Listen("tcp", s.cfg.HTTPAddr)
		if err != nil {
			if s.pgLis != nil {
				s.pgLis.Close()
			}
			return fmt.Errorf("http listen: %w", err)
		}
		s.httpLis = lis
		h := &httpapi.Handler{
			DB:       s.db,
			Log:      s.log,
			Met:      s.httpMet,
			Draining: &s.draining,
		}
		s.httpsrv = &http.Server{Handler: h.Mux(s.reg)}
		s.lisWG.Add(1)
		go func() {
			defer s.lisWG.Done()
			s.httpsrv.Serve(lis)
		}()
		s.log.Info("http listening", "addr", lis.Addr().String())
	}
	return nil
}

// PgAddr returns the bound pgwire address ("" when disabled) — useful
// with a ":0" config.
func (s *Server) PgAddr() string {
	if s.pgLis == nil {
		return ""
	}
	return s.pgLis.Addr().String()
}

// HTTPAddr returns the bound HTTP address ("" when disabled).
func (s *Server) HTTPAddr() string {
	if s.httpLis == nil {
		return ""
	}
	return s.httpLis.Addr().String()
}

// acceptLoop accepts pgwire connections until the listener closes.
func (s *Server) acceptLoop(lis net.Listener) {
	defer s.lisWG.Done()
	for {
		nc, err := lis.Accept()
		if err != nil {
			return // listener closed (shutdown)
		}
		s.conns.Add(1)
		s.track(nc, true)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.conns.Add(-1)
			defer s.track(nc, false)
			s.backend.Serve(s.shutCtx, nc)
		}()
	}
}

func (s *Server) track(nc net.Conn, add bool) {
	s.trackMu.Lock()
	if add {
		s.tracked[nc] = struct{}{}
	} else {
		delete(s.tracked, nc)
	}
	s.trackMu.Unlock()
}

// Shutdown drains and stops the server: close listeners, flip
// readiness, cancel the shutdown context so idle connections say
// goodbye (SQLSTATE 57P01), drain the engine admission gate, then
// wait for connection handlers up to the grace period before
// force-closing stragglers. Safe to call once; ctx bounds the whole
// operation below the configured grace.
func (s *Server) Shutdown(ctx context.Context) error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	s.log.Info("shutdown: draining")
	s.draining.Store(true)
	if s.pgLis != nil {
		s.pgLis.Close()
	}
	if s.httpsrv != nil {
		httpCtx, cancel := context.WithTimeout(ctx, s.cfg.ShutdownGrace)
		s.httpsrv.Shutdown(httpCtx)
		cancel()
	}
	s.shutCancel()

	grace := s.cfg.ShutdownGrace
	if dl, ok := ctx.Deadline(); ok {
		if until := time.Until(dl); until < grace {
			grace = until
		}
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-time.After(grace):
		// Grace expired: cut the remaining sockets; handlers notice
		// the read/write error and tear down their sessions.
		s.trackMu.Lock()
		n := len(s.tracked)
		for nc := range s.tracked {
			nc.Close()
		}
		s.trackMu.Unlock()
		s.log.Warn("shutdown: force-closed connections", "count", n)
		err = fmt.Errorf("server: force-closed %d connections after %s grace", n, s.cfg.ShutdownGrace)
		<-done
	}

	// With sessions gone, drain the engine so in-flight admission
	// slots settle before the process exits.
	drainCtx, cancel := context.WithTimeout(context.Background(), time.Second)
	s.db.Drain(drainCtx)
	cancel()
	s.lisWG.Wait()
	s.db.SetTraceHook(nil)
	s.log.Info("shutdown: complete")
	return err
}
