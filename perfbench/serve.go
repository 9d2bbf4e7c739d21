package main

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

const (
	// poolSize is the request pool: decision instants sampled from the S4
	// FCFS replay (serve.SampleRequests).
	poolSize = 512
	// closedPerSecond sizes phase (a): budget seconds x this many requests.
	closedPerSecond = 120
	// openFixedRate is the fixed open-loop rate below the knee at which the
	// traced run reads the open-loop p50 and p99, in requests/s over both
	// connections.
	openFixedRate = 300
	// tracedOpenRate is the open-loop rate of the traced daemon's single
	// step, near the knee, where requests share batches.
	tracedOpenRate = 1000
	// openLimit is the latency limit a ladder step's p99 must meet. It sits
	// above the stall a hot swap imposes on the requests queued behind it
	// (about 10 ms), so a step fails when a backlog builds, not when a swap
	// lands.
	openLimit = 50 * time.Millisecond
	// latenessLimit bounds the generator's own p99 lateness; above it the
	// generator, not the daemon, would dominate the latencies, and the run
	// is invalid.
	latenessLimit = 10 * time.Millisecond
	// openConns is the open-loop connection count (at most nproc = 2).
	openConns = 2
	// serveInstances is the number of S4 test splits scheduled through the
	// daemon, one decision per request, for slowdown; serveModels is the
	// number of models they are split between, hot-swapped into the
	// daemon. How well one trained model schedules varies by tens of
	// percent with its training trace, so slowdown averages over models.
	serveInstances = 12
	serveModels    = 4
)

// openLadder is the fixed ladder of total open-loop rates, requests/s.
var openLadder = []float64{500, 600, 700, 800, 850, 900, 950, 1000, 1050, 1100, 1200, 1300}

// daemon is a running mrsch-serve process.
type daemon struct {
	cmd       *exec.Cmd
	addr      string
	telemetry string
	logDone   chan struct{}
}

// startDaemon launches mrsch-serve on a loopback port chosen by the kernel
// and waits until it answers a handshake.
func startDaemon(bin, model, logPath string, telemetryOn bool) (*daemon, error) {
	args := []string{"-model", model, "-scale", "quick", "-listen", "127.0.0.1:0"}
	if telemetryOn {
		args = append(args, "-telemetry-addr", "127.0.0.1:0")
	}
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, logDone: make(chan struct{})}
	ready := make(chan error, 1)
	go func() {
		defer close(d.logDone)
		defer logf.Close()
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if sent {
				continue
			}
			switch {
			case strings.Contains(line, "event=telemetry "):
				d.telemetry = field(line, "addr")
			case strings.Contains(line, "event=serving "):
				d.addr = field(line, "addr")
				ready <- nil
				sent = true
			}
		}
		if !sent {
			ready <- fmt.Errorf("mrsch-serve exited before serving (log: %s)", logPath)
		}
		io.Copy(io.Discard, stderr)
	}()
	select {
	case err = <-ready:
	case <-time.After(60 * time.Second):
		err = fmt.Errorf("mrsch-serve did not start within 60s (log: %s)", logPath)
	}
	if err == nil {
		var c *serve.Client
		if c, err = serve.Dial(d.addr); err == nil {
			c.Close()
		}
	}
	if err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// field extracts key=value from a telemetry log line.
func field(line, key string) string {
	for _, tok := range strings.Fields(line) {
		if v, ok := strings.CutPrefix(tok, key+"="); ok {
			return v
		}
	}
	return ""
}

// peakRSS reads the daemon's peak RSS; call before stop.
func (d *daemon) peakRSS() (float64, bool) { return peakRSSMB(strconv.Itoa(d.cmd.Process.Pid)) }

// stop drains the daemon with SIGTERM (SIGKILL after 10s) and waits for
// the process and its log reader to end.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() { d.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-done
	}
	<-d.logDone
}

// scrape reads the daemon's /metrics snapshot.
func (d *daemon) scrape() (map[string]telemetry.HistogramValue, map[string]uint64, error) {
	resp, err := http.Get("http://" + d.telemetry + "/metrics?format=json")
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	var s telemetry.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		return nil, nil, err
	}
	hists := make(map[string]telemetry.HistogramValue)
	for _, h := range s.Histograms {
		hists[h.Name] = h
	}
	ctrs := make(map[string]uint64)
	for _, c := range s.Counters {
		ctrs[c.Name] = c.Value
	}
	return hists, ctrs, nil
}

// servePool is the request pool with the decision each request must get:
// the offline core.MRSch.Pick of a second agent loaded from the same
// weights, on the captured state. It also holds the served episodes'
// inputs and the models they are scheduled with.
type servePool struct {
	reqs    []serve.Request
	ctxs    []*sched.PickContext
	expect  [][]int     // expect[k][i]: model k's pick for request i
	weights []byte      // the daemon's start model
	ref     *core.MRSch // loaded from weights
	sys     cluster.Config
	ins     []trainInput // the S4 test splits the served episodes schedule
	models  [][]byte     // model k serves the splits i with i % len(models) == k
	refs    []*core.MRSch
}

// setupServe trains the first models of the served episodes (through
// traceTraining when traced), starts the daemon on the first and builds
// the pool.
func setupServe(e *env, telemetryOn bool, tag string, l *layers, traced bool, models int) (*daemon, *servePool, error) {
	ins, err := trainInputs(e.seed, serveInstances, l)
	if err != nil {
		return nil, nil, err
	}
	p := &servePool{ins: ins, sys: ins[0].m.Scale.System()}
	model := func(k int) string { return filepath.Join(e.workdir, fmt.Sprintf("s4-%s-%d.model", tag, k)) }
	for k := 0; k < models; k++ {
		w, err := trainSave(ins[k].m, model(k), l, traced)
		if err != nil {
			return nil, nil, err
		}
		ref, err := loadRef(w)
		if err != nil {
			return nil, nil, err
		}
		p.models, p.refs = append(p.models, w), append(p.refs, ref)
	}
	p.weights, p.ref = p.models[0], p.refs[0]
	if err := p.sample(ins[0].m); err != nil {
		return nil, nil, err
	}
	d, err := startDaemon(e.daemon, model(0), filepath.Join(e.workdir, "daemon-"+tag+".log"), telemetryOn)
	if err != nil {
		return nil, nil, err
	}
	return d, p, nil
}

// loadRef loads model bytes into a quick-scale agent for greedy picks.
func loadRef(weights []byte) (*core.MRSch, error) {
	ref := experiments.NewMRSchUntrained(experiments.QuickScale(), false)
	if err := ref.Load(bytes.NewReader(weights)); err != nil {
		return nil, err
	}
	ref.Train = false
	return ref, nil
}

// sample fills the request pool from the S4 FCFS replay of m's workload,
// with every model's offline pick for each request.
func (p *servePool) sample(m *experiments.Materials) error {
	reqs, err := serve.SampleRequests(p.sys, m.Workload(trainScenario), p.ref.Enc.Window, poolSize)
	if err != nil {
		return err
	}
	p.reqs = reqs
	p.expect = make([][]int, len(p.refs))
	for i := range reqs {
		ctx, err := pickContext(p.sys, p.ref.Enc.Window, &reqs[i])
		if err != nil {
			return err
		}
		p.ctxs = append(p.ctxs, ctx)
		for k, ref := range p.refs {
			p.expect[k] = append(p.expect[k], ref.Pick(ctx))
		}
	}
	return nil
}

// pickContext rebuilds the decision context a request describes, from the
// same public cluster and job calls the daemon uses.
func pickContext(sys cluster.Config, window int, req *serve.Request) (*sched.PickContext, error) {
	cl := cluster.New(sys)
	for _, a := range req.Running {
		if err := cl.Allocate(a.JobID, a.Demand, a.Start, a.EstEnd); err != nil {
			return nil, err
		}
	}
	queue := make([]*job.Job, len(req.Queue))
	for i, q := range req.Queue {
		queue[i] = &job.Job{ID: i, Submit: q.Submit, Walltime: q.Walltime, Demand: q.Demand}
	}
	w := min(window, len(queue))
	return &sched.PickContext{Now: req.Now, Window: queue[:w], Queue: queue, Cluster: cl, Usage: cl.Usage()}, nil
}

// decider returns a connection's decide function while the daemon serves
// model k: an error, or a pick other than the expected one, is a failure.
func (p *servePool) decider(c *serve.Client, k int) func(i int) error {
	return func(i int) error {
		pick, _, err := c.Decide(&p.reqs[i])
		if err != nil {
			return err
		}
		if pick != p.expect[k][i] {
			return fmt.Errorf("request %d: served pick %d, offline pick %d", i, pick, p.expect[k][i])
		}
		return nil
	}
}

// closedLoop is phase (a): one connection, the next request sent when the
// previous answer arrives, n requests round-robin over the pool.
func closedLoop(r *report, addr string, p *servePool, k, n int) ([]time.Duration, error) {
	c, err := serve.Dial(addr)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	decide := p.decider(c, k)
	lat := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		err := decide(i % len(p.reqs))
		d := time.Since(t0)
		r.op(err == nil, "closed loop: %v", err)
		if err == nil {
			lat = append(lat, d)
		}
	}
	return lat, nil
}

// openPhase is phase (b): the fixed-rate step, then the ladder, on two
// connections, with one hot swap of the same weights per second on
// connection 0. Steps stop at the first one that misses the limit.
type openPhase struct {
	fixed    stepResult
	ladder   []stepResult
	maxRate  float64 // achieved rate of the highest passing step
	swaps    []time.Duration
	requests int
}

func runOpen(e *env, addr string, p *servePool, rate float64, fixed time.Duration, ladder bool) (openPhase, error) {
	var ph openPhase
	var clients []*serve.Client
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()
	ol := &openLoop{swapEvery: time.Second, pool: len(p.reqs)}
	for k := 0; k < openConns; k++ {
		c, err := serve.Dial(addr)
		if err != nil {
			return ph, err
		}
		clients = append(clients, c)
		ol.conns = append(ol.conns, p.decider(c, 0))
	}
	version := clients[0].ModelVersion()
	ol.swap = func() error {
		v, err := clients[0].Swap(p.weights)
		if err == nil && v != version+1 {
			err = fmt.Errorf("swap answered version %d, want %d", v, version+1)
		}
		version = v
		return err
	}
	settle()
	account := func(s stepResult, name string) {
		e.rep.ops(s.Sent, s.Failed, "open loop %s at %g/s: %d of %d requests failed or were answered wrongly", name, s.Rate, s.Failed, s.Sent)
		e.rep.ops(len(s.Swaps), s.SwapErrs, "open loop %s at %g/s: %d of %d swaps failed", name, s.Rate, s.SwapErrs, len(s.Swaps))
		ph.requests += s.Sent
		ph.swaps = append(ph.swaps, s.Swaps...)
		late := pct(s.Lateness, 99)
		e.rep.check(late <= ms(latenessLimit), "open loop %s at %g/s: generator lateness p99 %.3f ms exceeds %v, the run is invalid", name, s.Rate, late, latenessLimit)
	}
	ph.fixed = ol.run(rate, fixed)
	account(ph.fixed, "fixed step")
	if !ladder {
		return ph, nil
	}
	for _, rate := range openLadder {
		s := ol.run(rate, e.budget*3/50)
		account(s, "ladder")
		ph.ladder = append(ph.ladder, s)
		if !s.passes() {
			break
		}
		ph.maxRate = float64(len(s.Latency)) / s.Elapsed.Seconds()
	}
	return ph, nil
}

// passes reports whether a step met the latency limit with every request
// answered correctly and no growing backlog.
func (s stepResult) passes() bool {
	return s.Failed == 0 && s.SwapErrs == 0 && len(s.Latency) > 0 &&
		pct(s.Latency, 99) <= ms(openLimit) && s.Tail <= openLimit
}

func stepInfo(s stepResult) map[string]any {
	return map[string]any{
		"rate": s.Rate, "sent": s.Sent, "failed": s.Failed, "swaps": len(s.Swaps),
		"p50_ms": pct(s.Latency, 50), "p99_ms": pct(s.Latency, 99), "tail_ms": ms(s.Tail),
		"achieved_per_s":  float64(len(s.Latency)) / s.Elapsed.Seconds(),
		"lateness_p50_ms": pct(s.Lateness, 50), "lateness_p99_ms": pct(s.Lateness, 99),
		"swap_p50_ms": pct(s.Swaps, 50), "passes": s.passes(),
	}
}

func latencyInfo(ds []time.Duration) map[string]any {
	return map[string]any{"samples": len(ds), "p50_ms": pct(ds, 50), "p90_ms": pct(ds, 90), "p95_ms": pct(ds, 95), "p99_ms": pct(ds, 99), "max_ms": pct(ds, 100)}
}

func poolInfo(p *servePool) map[string]any {
	var ql []float64
	for _, r := range p.reqs {
		ql = append(ql, float64(len(r.Queue)))
	}
	return map[string]any{"requests": len(p.reqs), "queue_len_p50": percentile(ql, 50), "queue_len_max": percentile(ql, 100)}
}

// remotePicker schedules through the daemon: each Pick is one Decide of
// the live decision context, and the served pick must equal the offline
// core.MRSch.Pick of the reference agent on the same context. When
// deferred, the traced picker verifies after its timer stops.
type remotePicker struct {
	c        *serve.Client
	ref      *core.MRSch
	r        *report
	deferred bool
	err      error
}

func (p *remotePicker) Pick(ctx *sched.PickContext) int {
	req := serve.RequestFromContext(ctx)
	pick, _, err := p.c.Decide(&req)
	p.err = err
	if !p.deferred {
		p.verify(ctx, pick)
	}
	if err != nil {
		return 0
	}
	return pick
}

func (p *remotePicker) verify(ctx *sched.PickContext, pick int) {
	if p.err != nil {
		p.r.op(false, "served episode: %v", p.err)
		return
	}
	want := p.ref.Pick(ctx)
	p.r.op(pick == want, "served episode at t=%g: served pick %d, offline pick %d", ctx.Now, pick, want)
}

// servedEpisodes schedules the pool's S4 test splits through the daemon
// on one connection, model by model, hot-swapping each model in before its
// splits, and returns each split's average bounded slowdown relative to
// the Heuristic's. When each is non-nil it runs once a model k is in,
// before its splits. With l set the episodes are traced into l, and the
// allocations of one more, untraced, episode are counted. The daemon ends
// up serving the last model.
func servedEpisodes(e *env, addr string, p *servePool, l *layers, each func(k int) error) ([]float64, error) {
	c, err := serve.Dial(addr)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	rp := &remotePicker{c: c, r: e.rep}
	var ratios []float64
	first, last := true, 0
	for k, ref := range p.refs {
		if k > 0 {
			want := c.ModelVersion() + uint64(k)
			v, err := c.Swap(p.models[k])
			e.rep.op(err == nil && v == want, "served episodes: swap to model %d answered version %d, %v; want version %d", k, v, err, want)
		}
		if each != nil {
			if err := each(k); err != nil {
				return nil, err
			}
		}
		rp.ref = ref
		for i := k; i < len(p.ins); i += len(p.refs) {
			in := p.ins[i]
			wp := sched.NewWindowPolicy(rp, ref.Enc.Window)
			var rep metrics.Report
			if l != nil {
				ep, err := runEpisode(p.sys, wp, &ref.Enc, in.test, experiments.MethodMRSch, trainScenario)
				if err != nil {
					return nil, err
				}
				l.addEpisode(ep, false)
				rep = ep.rep
				if first {
					l.decisions, l.passes = ep.pick.n, ep.pass.n
				}
				last = ep.pick.n
			} else if rep, err = experiments.Evaluate(p.sys, wp, in.test, experiments.MethodMRSch, trainScenario, -1); err != nil {
				return nil, err
			}
			e.rep.op(rep.Jobs == len(in.test), "served episode %d: finished %d of %d jobs", i, rep.Jobs, len(in.test))
			ratios = append(ratios, rep.AvgSlowdown/in.fcfs)
			first = false
		}
	}
	if l != nil {
		// The last split again, untraced: the same decisions as its
		// traced episode.
		wp := sched.NewWindowPolicy(rp, rp.ref.Enc.Window)
		before := readAllocs()
		_, err := experiments.Evaluate(p.sys, wp, p.ins[len(p.ins)-1].test, experiments.MethodMRSch, trainScenario, -1)
		l.alloc, l.allocDecisions = readAllocs().since(before), last
		if err != nil {
			return nil, err
		}
	}
	return ratios, nil
}

// serveRun is the traced run's measurement of an untraced daemon: phase
// (a), closed loop, and phase (b), the open loop with the rate ladder.
type serveRun struct {
	closed []time.Duration
	open   openPhase
}

func measureServe(e *env, d *daemon, pool *servePool, n int, fixed time.Duration) (serveRun, error) {
	settle()
	lat, err := closedLoop(e.rep, d.addr, pool, 0, n)
	if err != nil {
		return serveRun{}, err
	}
	ph, err := runOpen(e, d.addr, pool, openFixedRate, fixed, true)
	if err != nil {
		return serveRun{}, err
	}
	e.rep.check(ph.maxRate > 0, "open loop: no ladder rate met the %v p99 limit", openLimit)
	var steps []map[string]any
	for _, s := range ph.ladder {
		steps = append(steps, stepInfo(s))
	}
	e.info["pool"] = poolInfo(pool)
	e.info["closed"] = latencyInfo(lat)
	e.info["open_fixed"] = stepInfo(ph.fixed)
	e.info["open_ladder"] = steps
	e.info["open_limit_ms"] = ms(openLimit)
	return serveRun{closed: lat, open: ph}, nil
}

func runServe(e *env) error {
	// Each set-up starts its own daemon; all but the last stop once the
	// set-ups are timed.
	var daemons []*daemon
	var pool *servePool
	setup, err := timeSetup(slowSetupRepeats, func(k int) error {
		d, p, err := setupServe(e, false, strconv.Itoa(k), &layers{}, false, serveModels)
		if err == nil {
			daemons, pool = append(daemons, d), p
		}
		return err
	})
	for i, d := range daemons {
		if err != nil || i < len(daemons)-1 {
			d.stop()
		}
	}
	if err != nil {
		return err
	}
	d := daemons[len(daemons)-1]
	defer d.stop()
	// Phase (a) runs in blocks between the served episodes, two per model.
	// The host's other tenants delay wakeups in bursts that can span a
	// block; a change to the daemon moves every block.
	settle()
	var closed []time.Duration
	var blockP50 []float64
	perBlock := int(e.budget.Seconds()*closedPerSecond) / (2 * serveModels)
	ratios, err := servedEpisodes(e, d.addr, pool, nil, func(k int) error {
		for b := 0; b < 2; b++ {
			lat, err := closedLoop(e.rep, d.addr, pool, k, perBlock)
			if err != nil {
				return err
			}
			closed = append(closed, lat...)
			blockP50 = append(blockP50, pct(lat, 50))
		}
		return nil
	})
	if err != nil {
		return err
	}
	e.info["pool"] = poolInfo(pool)
	e.info["closed"] = latencyInfo(closed)
	rss, ok := d.peakRSS()
	e.rep.check(ok, "daemon peak RSS unreadable")
	e.rep.set("setup_s", "s", setup)
	e.rep.set("peak_rss_mb", "MB", rss)
	// op_ms: one decision round trip in the closed loop, the p50 of the
	// quietest block; slowdown: the served episodes' relative to the
	// Heuristic's, averaged.
	e.rep.set("op_ms", "ms", slices.Min(blockP50))
	e.info["closed_block_p50_ms"] = blockP50
	e.rep.set("slowdown", "ratio", mean(ratios))
	return nil
}

// traceServe measures the tails and the rate ladder on an untraced daemon,
// then the layers on a second daemon with /metrics on, scraped after each
// phase, whose set-up training is traced; the served episodes run last.
// The daemon's own split goes to the run details.
func traceServe(e *env) error {
	n := int(e.budget.Seconds() * closedPerSecond)
	// The untraced daemon serves no episodes: one model is enough.
	d, pool, err := setupServe(e, false, "plain", &layers{}, false, 1)
	if err != nil {
		return err
	}
	plain, err := measureServe(e, d, pool, n, e.budget/5)
	d.stop()
	if err != nil {
		return err
	}
	for name, n := range map[string]int{"closed loop": len(plain.closed), "open loop fixed step": len(plain.open.fixed.Latency)} {
		e.rep.check(n >= 1000, "%s: %d samples, p99 needs at least 1000", name, n)
	}

	l := &layers{}
	d, pool, err = setupServe(e, true, "traced", l, true, serveModels)
	if err != nil {
		return err
	}
	defer d.stop()
	settle()
	t0 := time.Now()
	lat, err := closedLoop(e.rep, d.addr, pool, 0, n/2)
	l.serve.add(time.Since(t0))
	if err != nil {
		return err
	}
	histA, ctrA, err := d.scrape()
	if err != nil {
		return err
	}
	ph, err := runOpen(e, d.addr, pool, tracedOpenRate, e.budget/10, false)
	if err != nil {
		return err
	}
	histB, ctrB, err := d.scrape()
	if err != nil {
		return err
	}
	requests := n/2 + ph.requests
	e.rep.check(ctrA["serve_decisions_total"] == uint64(n/2),
		"daemon counted %d decisions in the closed loop, the client sent %d", ctrA["serve_decisions_total"], n/2)
	e.rep.check(ctrB["serve_decisions_total"] == uint64(requests),
		"daemon counted %d decisions in total, the client sent %d", ctrB["serve_decisions_total"], requests)
	e.rep.check(ctrB["serve_swaps_total"] == uint64(len(ph.swaps)),
		"daemon counted %d swaps, the client issued %d", ctrB["serve_swaps_total"], len(ph.swaps))
	if _, err := servedEpisodes(e, d.addr, pool, l, nil); err != nil {
		return err
	}
	l.requests = requests
	l.addOverhead(time.Duration(pct(lat, 50)*1e6), time.Duration(pct(plain.closed, 50)*1e6))
	l.set(e)

	rtt, err := wireRTT(e.self, len(pool.reqs), requestBytes(pool))
	if err != nil {
		return err
	}
	b1, b2 := batchDecide(pool)
	wait, decide := histA["serve_batch_wait_ns"], histA["serve_decision_latency_ns"]
	sizeA, sizeB := histA["serve_batch_size"], histB["serve_batch_size"]
	openBatches := float64(sizeB.Count - sizeA.Count)
	e.info["serve"] = map[string]any{
		"p99_ms":                  pct(plain.closed, 99),
		"open_p50_ms":             pct(plain.open.fixed.Latency, 50),
		"open_p99_ms":             pct(plain.open.fixed.Latency, 99),
		"max_rate_per_s":          plain.open.maxRate,
		"batch_wait_us_p50":       float64(wait.P50) / 1e3,
		"batch_wait_us_p99":       float64(wait.P99) / 1e3,
		"batch_decide_us":         float64(decide.P50) / 1e3,
		"batch_size":              (sizeB.Mean*float64(sizeB.Count) - sizeA.Mean*float64(sizeA.Count)) / openBatches,
		"core.batch_decide_us.b1": b1,
		"core.batch_decide_us.b2": b2,
		"wire.rtt_us":             rtt,
		"unattributed_us":         pct(lat, 50)*1000 - float64(wait.P50)/1e3 - float64(decide.P50)/1e3 - rtt,
		"swap_ms":                 pct(ph.swaps, 50),
	}
	return nil
}

// settle prepares this process for a latency phase: one P per client
// connection, and the set-up's garbage collected so the collector does not
// compete with the daemon for the CPUs while requests are timed.
func settle() {
	runtime.GOMAXPROCS(openConns)
	runtime.GC()
	debug.FreeOSMemory()
}

// batchDecide times core.BatchDecider.Decide in this process at batch 1
// and 2 over the pool's contexts: the forward-pass floor, p50 in µs.
func batchDecide(p *servePool) (b1, b2 float64) {
	bd, ok := p.ref.BatchDecider()
	if !ok {
		return 0, 0
	}
	var dst []int
	timeBatch := func(b int) float64 {
		var ds []time.Duration
		for i := 0; i+b <= len(p.ctxs); i += b {
			t0 := time.Now()
			dst = bd.Decide(p.ctxs[i:i+b], dst)
			ds = append(ds, time.Since(t0))
		}
		return percentile(durations(ds, time.Microsecond), 50)
	}
	timeBatch(1) // warm the decider's scratch
	return timeBatch(1), timeBatch(2)
}

// requestBytes is the median gob size of a pool request: the payload the
// transport floor measurement sends.
func requestBytes(p *servePool) int {
	var sizes []float64
	for i := range p.reqs {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&p.reqs[i]); err == nil {
			sizes = append(sizes, float64(buf.Len()))
		}
	}
	return int(percentile(sizes, 50))
}

// echoReply is the frame the echo peer answers with, about the size of an
// encoded decision.
const echoReply = 64

// wireRTT measures the round trip of a bare CRC frame of the request's
// size to a second process over loopback and back: the transport floor,
// p50 in µs.
func wireRTT(self string, n, size int) (float64, error) {
	cmd := exec.Command(self, "--echo-server")
	out, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()
	addr, err := bufio.NewReader(out).ReadString('\n')
	if err != nil {
		return 0, fmt.Errorf("echo peer: %w", err)
	}
	conn, err := net.Dial("tcp", strings.TrimSpace(addr))
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	payload := make([]byte, size)
	var ds []time.Duration
	for i := 0; i < n*4; i++ {
		t0 := time.Now()
		if err := wire.WriteFrame(conn, payload); err != nil {
			return 0, err
		}
		if _, err := wire.ReadFrame(conn); err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(t0))
	}
	return percentile(durations(ds, time.Microsecond), 50), nil
}

// runEchoServer answers every frame on one loopback connection with an
// echoReply-byte frame, printing its address first.
func runEchoServer() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	fmt.Println(ln.Addr().String())
	conn, err := ln.Accept()
	if err != nil {
		return err
	}
	defer conn.Close()
	reply := make([]byte, echoReply)
	for {
		if _, err := wire.ReadFrame(conn); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
		if err := wire.WriteFrame(conn, reply); err != nil {
			return err
		}
	}
}
