package serve

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/telemetry"
)

// Config tunes the daemon's admission batching.
type Config struct {
	// MaxBatch caps how many queued requests coalesce into one batched
	// forward pass (default 16).
	MaxBatch int
	// Logf, when set, receives connection-level events (accepts, protocol
	// rejections, swaps). The default is silence.
	Logf func(format string, args ...any)
	// Metrics, when set, receives the daemon's serve_* instruments.
	// Telemetry is observe-only: decisions are byte-identical with and
	// without it (doc.go, rule 7).
	Metrics *telemetry.Registry
	// Journal, when set, receives model lifecycle events (swaps and swap
	// failures) as JSONL.
	Journal *telemetry.Journal
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.MaxBatch <= 0 {
		out.MaxBatch = 16
	}
	if out.Logf == nil {
		out.Logf = func(string, ...any) {}
	}
	return out
}

// serveMetrics caches the daemon's instruments at wire-up time so record
// paths never touch the registry. With a nil registry the instruments are
// live orphans and `timed` is false, skipping the clock reads around the
// forward pass — either way the decision path computes identical picks.
type serveMetrics struct {
	timed           bool
	decisions       *telemetry.Counter
	batches         *telemetry.Counter
	rejected        *telemetry.Counter
	swaps           *telemetry.Counter
	swapFailures    *telemetry.Counter
	batchSize       *telemetry.Histogram
	batchWait       *telemetry.Histogram
	decisionLatency *telemetry.Histogram
	modelVersion    *telemetry.Gauge
	connsActive     *telemetry.Gauge
}

func newServeMetrics(reg *telemetry.Registry) serveMetrics {
	return serveMetrics{
		timed:           reg != nil,
		decisions:       reg.Counter("serve_decisions_total"),
		batches:         reg.Counter("serve_batches_total"),
		rejected:        reg.Counter("serve_requests_rejected_total"),
		swaps:           reg.Counter("serve_swaps_total"),
		swapFailures:    reg.Counter("serve_swap_failures_total"),
		batchSize:       reg.Histogram("serve_batch_size"),
		batchWait:       reg.Histogram("serve_batch_wait_ns"),
		decisionLatency: reg.Histogram("serve_decision_latency_ns"),
		modelVersion:    reg.Gauge("serve_model_version"),
		connsActive:     reg.Gauge("serve_conns_active"),
	}
}

// Server is the decision daemon: it owns a served model and answers
// decision requests from any number of client connections, coalescing
// concurrent requests into batched forward passes. See doc.go for the
// delivery contract.
type Server struct {
	cfg    Config
	eng    *engine
	sys    cluster.Config
	window int
	m      serveMetrics

	admit chan *pending

	mu       sync.Mutex
	ln       net.Listener
	conns    map[*conn]struct{}
	draining bool
	inflight sync.WaitGroup // admitted, unanswered decision requests

	batcherDone chan struct{}
	connWG      sync.WaitGroup
}

// pending is one admitted decision request parked in the batcher's queue.
type pending struct {
	c   *conn
	id  uint64
	ctx *sched.PickContext
	// admitted is when the request entered the queue; it is read only
	// when telemetry is wired.
	admitted time.Time
}

// conn is one client connection; the write mutex serializes decision
// replies (written by the batcher) with swap acks and rejections (written
// by the connection's reader), and guards the reused encode buffers.
type conn struct {
	rwc io.ReadWriteCloser
	wmu sync.Mutex
	fw  frameWriter
}

func (c *conn) send(m *message) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.fw.write(m)
}

// NewServer builds a daemon serving the agent's decisions for the given
// system. The agent is put in inference mode (Train=false) and must not be
// used by the caller afterwards except through Swap. The system's
// capacities must match the encoding the agent was built with.
func NewServer(agent *core.MRSch, sys cluster.Config, cfg Config) (*Server, error) {
	if len(sys.Capacities) != agent.Enc.Resources() {
		return nil, fmt.Errorf("serve: system has %d resources, the served model encodes %d", len(sys.Capacities), agent.Enc.Resources())
	}
	for r, units := range agent.Enc.Units {
		if sys.Capacities[r] != units {
			return nil, fmt.Errorf("serve: resource %q has %d units, the served model encodes %d", sys.Resources[r], sys.Capacities[r], units)
		}
	}
	eng, err := newEngine(agent)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:         cfg.withDefaults(),
		eng:         eng,
		sys:         sys,
		window:      agent.Enc.Window,
		m:           newServeMetrics(cfg.Metrics),
		admit:       make(chan *pending, 256),
		conns:       make(map[*conn]struct{}),
		batcherDone: make(chan struct{}),
	}
	s.m.modelVersion.Set(float64(eng.modelVersion()))
	go s.batcher()
	return s, nil
}

// ModelVersion reports the currently served model version (1 at startup,
// incremented by each successful swap).
func (s *Server) ModelVersion() uint64 { return s.eng.modelVersion() }

// Swap atomically replaces the served weights with those read from r
// (nn.SaveWeights format) and returns the new model version. On error the
// previous version keeps serving and the returned version is unchanged.
// In-flight requests finish on whichever version their batch started with.
func (s *Server) Swap(r io.Reader) (uint64, error) {
	v, err := s.eng.swap(r)
	if err == nil {
		s.cfg.Logf("serve: model swapped, now serving version %d", v)
		s.m.swaps.Inc()
		s.m.modelVersion.Set(float64(v))
		s.cfg.Journal.Event("model_swap", "version", v)
	} else {
		s.m.swapFailures.Inc()
		s.cfg.Journal.Event("model_swap_failed", "serving_version", v, "error", err.Error())
	}
	return v, err
}

// Serve accepts connections on ln until Shutdown, answering decision
// requests. It returns after Shutdown completes (nil) or on a listener
// error.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return fmt.Errorf("serve: server is shut down")
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		rwc, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			draining := s.draining
			s.mu.Unlock()
			if draining {
				return nil
			}
			return fmt.Errorf("serve: accept: %w", err)
		}
		c := &conn{rwc: rwc, fw: frameWriter{w: rwc}}
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			rwc.Close()
			continue
		}
		s.conns[c] = struct{}{}
		s.connWG.Add(1)
		s.mu.Unlock()
		go s.serveConn(c)
	}
}

// Shutdown drains the daemon gracefully: stop accepting, answer every
// admitted request, then close connections. Safe to call more than once.
func (s *Server) Shutdown() {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.connWG.Wait()
		return
	}
	s.draining = true
	ln := s.ln
	s.mu.Unlock()

	if ln != nil {
		ln.Close()
	}
	// draining is set, so no request can be admitted anymore: once the
	// in-flight count drains, the admission queue is empty for good.
	s.inflight.Wait()
	close(s.admit)
	<-s.batcherDone

	s.mu.Lock()
	for c := range s.conns {
		c.rwc.Close()
	}
	s.mu.Unlock()
	s.connWG.Wait()
}

// serveConn runs one connection: handshake, then a read loop dispatching
// decide and swap frames until the peer hangs up or corrupts the stream.
func (s *Server) serveConn(c *conn) {
	s.m.connsActive.Add(1)
	defer s.m.connsActive.Add(-1)
	defer s.connWG.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		c.rwc.Close()
	}()

	// No other goroutine writes to the connection until it has admitted a
	// request, so the handshake writes bypass the write mutex.
	r := bufio.NewReader(c.rwc)
	hello, err := readHandshake(r)
	if err != nil || hello.Type != msgHello {
		s.cfg.Logf("serve: dropping connection without a valid hello: %v", err)
		return
	}
	if hello.Proto != ProtocolVersion {
		writeHandshake(c.rwc, &message{
			Type:  msgWelcome,
			Proto: ProtocolVersion,
			Err:   fmt.Sprintf("serve: client speaks protocol %d, server %d", hello.Proto, ProtocolVersion),
		})
		s.cfg.Logf("serve: rejected client speaking protocol %d", hello.Proto)
		return
	}
	welcome := &message{
		Type:         msgWelcome,
		Proto:        ProtocolVersion,
		ModelVersion: s.eng.modelVersion(),
		Window:       s.window,
		Resources:    s.sys.Resources,
		Capacities:   s.sys.Capacities,
	}
	if err := writeHandshake(c.rwc, welcome); err != nil {
		return
	}

	for {
		m, err := readMessage(r)
		if err != nil {
			if !errors.Is(err, io.EOF) {
				s.cfg.Logf("serve: connection read: %v", err)
			}
			return
		}
		switch m.Type {
		case msgDecide:
			s.handleDecide(c, m)
		case msgSwap:
			v, err := s.Swap(bytes.NewReader(m.Weights))
			ack := &message{Type: msgSwapped, ID: m.ID, ModelVersion: v}
			if err != nil {
				ack.Err = err.Error()
			}
			if err := c.send(ack); err != nil {
				return
			}
		default:
			s.cfg.Logf("serve: dropping connection after unexpected %s frame", m.Type)
			return
		}
	}
}

// handleDecide validates and admits one decision request, or answers it
// with a request-level error leaving the connection intact.
func (s *Server) handleDecide(c *conn, m *message) {
	reject := func(err error) {
		s.m.rejected.Inc()
		c.send(&message{Type: msgDecision, ID: m.ID, Pick: -1, Err: err.Error()})
	}
	ctx, err := buildContext(s.sys, s.window, &m.Req)
	if err != nil {
		reject(err)
		return
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		reject(fmt.Errorf("serve: server is draining"))
		return
	}
	s.inflight.Add(1)
	s.mu.Unlock()
	p := &pending{c: c, id: m.ID, ctx: ctx}
	if s.m.timed {
		p.admitted = time.Now()
	}
	s.admit <- p
}

// batcher is the admission loop. It is work-conserving: it blocks for the
// first pending request, adds whatever else is already queued (up to
// MaxBatch), and dispatches at once. Under load, batches form from the
// requests that arrive while the previous forward pass runs; a lone
// request never waits for company.
func (s *Server) batcher() {
	defer close(s.batcherDone)
	var (
		batch []*pending
		ctxs  []*sched.PickContext
		picks []int
	)
	for first := range s.admit {
		batch = append(batch[:0], first)
	drain:
		for len(batch) < s.cfg.MaxBatch {
			select {
			case p, ok := <-s.admit:
				if !ok {
					break drain
				}
				batch = append(batch, p)
			default:
				break drain
			}
		}

		ctxs = ctxs[:0]
		for _, p := range batch {
			ctxs = append(ctxs, p.ctx)
		}
		// Clock reads happen only at observation boundaries, and only when
		// telemetry is wired: they never influence batching or picks. The
		// batch's first request is its oldest, so its queueing time is the
		// batch's wait.
		var tDecide time.Time
		if s.m.timed {
			tDecide = time.Now()
			s.m.batchWait.RecordDuration(tDecide.Sub(first.admitted))
		}
		var version uint64
		picks, version = s.eng.decide(ctxs, picks)
		if s.m.timed {
			s.m.decisionLatency.RecordDuration(time.Since(tDecide))
		}
		s.m.batches.Inc()
		s.m.batchSize.Record(int64(len(batch)))
		s.m.decisions.Add(uint64(len(batch)))
		for i, p := range batch {
			p.c.send(&message{Type: msgDecision, ID: p.id, Pick: picks[i], ModelVersion: version})
			s.inflight.Done()
		}
	}
}
