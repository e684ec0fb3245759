package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"paotr/internal/service"
)

// server is one spawned paotrserve process and the benchmark's two
// connections to it: a for registrations, ticks and /metrics, b for
// reads.
type server struct {
	cmd    *exec.Cmd
	base   string
	a, b   *http.Client
	exited chan struct{}
	stderr bytes.Buffer
}

func newConn() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

// startServer spawns the server binary configured for w and waits until
// it answers /healthz.
func startServer(ctx context.Context, bin string, w *Workload) (*server, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("picking a port: %w", err)
	}
	addr := l.Addr().String()
	l.Close()
	args := []string{
		"-addr", addr,
		"-seed", strconv.Itoa(sensorSeed),
		"-shards", strconv.Itoa(w.Shards),
		"-admit-rate", "1000000", "-admit-burst", "1000000",
	}
	if w.RelayFrac > 0 {
		args = append(args, "-relay-frac", strconv.FormatFloat(w.RelayFrac, 'g', -1, 64))
	}
	s := &server{base: "http://" + addr, a: newConn(), b: newConn(), exited: make(chan struct{})}
	s.cmd = exec.Command(bin, args...)
	s.cmd.Stderr = &s.stderr
	// The server dies with the benchmark, even when the benchmark is
	// killed.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	go func() {
		_ = s.cmd.Wait() // the exit status of a killed server says nothing
		close(s.exited)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := s.do(ctx, s.a, http.MethodGet, "/healthz", nil, nil)
		if err == nil && st == http.StatusOK {
			return s, nil
		}
		select {
		case <-s.exited:
			return nil, fmt.Errorf("server exited during start-up: %s", strings.TrimSpace(s.stderr.String()))
		case <-ctx.Done():
			s.stop()
			return nil, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, errors.New("server did not answer /healthz within 30s")
		}
	}
}

// peakRSSMB reads the server's VmHWM from /proc (0 where unavailable).
func (s *server) peakRSSMB() float64 {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// stop kills the server and waits for it to exit.
func (s *server) stop() {
	_ = s.cmd.Process.Kill() // fails only when it already exited
	<-s.exited
	s.a.CloseIdleConnections()
	s.b.CloseIdleConnections()
}

// do sends one request on connection c and reads the whole response
// body into buf (when non-nil).
func (s *server) do(ctx context.Context, c *http.Client, method, path string, body []byte, buf *bytes.Buffer) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, s.base+path, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if buf != nil {
		buf.Reset()
		_, err = buf.ReadFrom(resp.Body)
	} else {
		_, err = io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode, err
}

// rep is what one repetition measured: one server, spawned, set up,
// measured and stopped.
type rep struct {
	setupS float64
	// measuredS is the wall-clock length of the measured ticks.
	measuredS  float64
	registerUs []float64
	tickMs     []float64
	tickBytes  []float64
	// verdicts counts due executions returned over the measured ticks.
	verdicts  int64
	resultsUs []float64
	scrapeMs  []float64
	lateMs    []float64
	before    service.Metrics
	after     service.Metrics
	peakRSSMB float64
}

// e2eRun is what one end-to-end pass measured, repetition by
// repetition.
type e2eRun struct {
	reps   []*rep
	cpuS   float64
	ops    opCount
	verify *verifier
}

// opCount counts operations attempted and failed.
type opCount struct {
	attempted, failed atomic.Int64
	mu                sync.Mutex
	notes             []string
}

func (o *opCount) fail(format string, args ...any) {
	o.failed.Add(1)
	o.mu.Lock()
	defer o.mu.Unlock()
	if len(o.notes) < 20 {
		o.notes = append(o.notes, fmt.Sprintf(format, args...))
	}
}

// request sends one counted request: a transport error or a status
// other than want counts as a failure.
func (o *opCount) request(ctx context.Context, s *server, c *http.Client, method, path string, body []byte, buf *bytes.Buffer, want int) bool {
	o.attempted.Add(1)
	st, err := s.do(ctx, c, method, path, body, buf)
	switch {
	case err != nil:
		o.fail("%s %s: %v", method, path, err)
		return false
	case st != want:
		o.fail("%s %s: status %d", method, path, st)
		return false
	}
	return true
}

var tickBody = []byte(`{"steps":1}`)

// runE2E drives one workload against the real server n times over,
// each time with a fresh server: spawn, register and warm up (the timed
// set-up), then the measured ticks and reads, then the server's peak
// memory.
func runE2E(ctx context.Context, bin string, p *Plan, n int) (*e2eRun, error) {
	defer debug.SetGCPercent(debug.SetGCPercent(400))
	out := &e2eRun{verify: newVerifier()}
	cpu0 := cpuSeconds()
	for k := 0; k < n; k++ {
		r, err := out.runRep(ctx, bin, p)
		if err != nil {
			return nil, err
		}
		out.reps = append(out.reps, r)
	}
	out.cpuS = cpuSeconds() - cpu0
	return out, nil
}

func (out *e2eRun) runRep(ctx context.Context, bin string, p *Plan) (*rep, error) {
	w := p.W
	r := &rep{}
	start := time.Now()
	srv, err := startServer(ctx, bin, w)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	live := &liveSet{}
	var buf bytes.Buffer
	for _, reg := range p.Base {
		if out.register(ctx, srv, r, reg, &buf) {
			live.add(reg)
		}
	}
	for t := 0; t < w.Warmup; t++ {
		out.ops.request(ctx, srv, srv.a, http.MethodPost, "/tick", tickBody, &buf, http.StatusOK)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	r.setupS = time.Since(start).Seconds()
	if err := out.fetchMetrics(ctx, srv, &r.before); err != nil {
		return nil, err
	}

	// The benchmark's own garbage is collected before each measured phase,
	// so its collector runs as little as possible beside the server's.
	runtime.GC()
	var begun atomic.Int64
	done := make(chan struct{})
	var readers sync.WaitGroup
	tick := int64(w.Warmup)
	measuredStart := time.Now()
	if len(p.Reads) > 0 {
		readers.Add(1)
		go func() {
			defer readers.Done()
			out.openLoopReads(ctx, srv, r, p, measuredStart, &begun, done)
		}()
	}
	for i := 0; i < p.Ticks; i++ {
		if w.Churn > 0 {
			begun.Store(int64(i + 1))
			for _, id := range live.popOldest(w.Churn) {
				out.ops.request(ctx, srv, srv.a, http.MethodDelete, "/queries/"+id, nil, &buf, http.StatusOK)
			}
			for _, reg := range p.Churn[i] {
				if out.register(ctx, srv, r, reg, &buf) {
					live.add(reg)
				}
			}
		}
		tick++
		out.tick(ctx, srv, r, tick, live, i%10 == 0, &buf)
	}
	r.measuredS = time.Since(measuredStart).Seconds()
	close(done)
	readers.Wait()
	if err := out.fetchMetrics(ctx, srv, &r.after); err != nil {
		return nil, err
	}
	runtime.GC()
	if len(p.ReadBase) > 0 {
		out.readPhase(ctx, srv, r, p, &buf)
	}
	r.peakRSSMB = srv.peakRSSMB()
	return r, ctx.Err()
}

// tick sends one measured POST /tick and records its round trip, size
// and verdict count. With check set it verifies the tick's executions,
// outside the timed round trip.
func (out *e2eRun) tick(ctx context.Context, srv *server, r *rep, tick int64, live *liveSet, check bool, buf *bytes.Buffer) {
	start := time.Now()
	if !out.ops.request(ctx, srv, srv.a, http.MethodPost, "/tick", tickBody, buf, http.StatusOK) {
		return
	}
	r.tickMs = append(r.tickMs, float64(time.Since(start).Nanoseconds())/1e6)
	r.tickBytes = append(r.tickBytes, float64(buf.Len()))
	r.verdicts += int64(bytes.Count(buf.Bytes(), []byte(`"id":`)))
	if !check {
		return
	}
	var trs []service.TickResult
	if err := json.Unmarshal(buf.Bytes(), &trs); err != nil || len(trs) != 1 {
		out.ops.fail("tick %d: undecodable body", tick)
		return
	}
	out.verify.tick(trs[0], tick, live)
}

// register sends one registration and records its latency.
func (out *e2eRun) register(ctx context.Context, srv *server, r *rep, reg Reg, buf *bytes.Buffer) bool {
	body, err := json.Marshal(reg)
	if err != nil {
		panic(err) // unreachable: Reg holds only plain data
	}
	start := time.Now()
	ok := out.ops.request(ctx, srv, srv.a, http.MethodPost, "/queries", body, buf, http.StatusCreated)
	if ok {
		r.registerUs = append(r.registerUs, float64(time.Since(start).Nanoseconds())/1e3)
	}
	return ok
}

func (out *e2eRun) fetchMetrics(ctx context.Context, srv *server, m *service.Metrics) error {
	var buf bytes.Buffer
	if !out.ops.request(ctx, srv, srv.a, http.MethodGet, "/metrics", nil, &buf, http.StatusOK) {
		return fmt.Errorf("GET /metrics failed")
	}
	if err := json.Unmarshal(buf.Bytes(), m); err != nil {
		return fmt.Errorf("decoding /metrics: %w", err)
	}
	return nil
}

// readResults sends GET /results/{id}?n=1 on the reader connection,
// records its latency from `from`, and then checks the verdict it
// returns. It returns when the response arrived.
func (out *e2eRun) readResults(ctx context.Context, srv *server, r *rep, reg Reg, from time.Time, buf *bytes.Buffer) time.Time {
	ok := out.ops.request(ctx, srv, srv.b, http.MethodGet, "/results/"+reg.ID+"?n=1", nil, buf, http.StatusOK)
	end := time.Now()
	if !ok {
		return end
	}
	r.resultsUs = append(r.resultsUs, float64(end.Sub(from).Nanoseconds())/1e3)
	var execs []service.Execution
	if err := json.Unmarshal(buf.Bytes(), &execs); err != nil {
		out.ops.fail("results %s: %v", reg.ID, err)
		return end
	}
	for _, e := range execs {
		out.verify.check(reg.Query, e.Tick, e.Value)
	}
	return end
}

// scrape sends GET /metrics.prom on the reader connection and records
// its latency from `from`. It returns when the response arrived.
func (out *e2eRun) scrape(ctx context.Context, srv *server, r *rep, from time.Time, buf *bytes.Buffer) time.Time {
	ok := out.ops.request(ctx, srv, srv.b, http.MethodGet, "/metrics.prom", nil, buf, http.StatusOK)
	end := time.Now()
	if !ok {
		return end
	}
	r.scrapeMs = append(r.scrapeMs, float64(end.Sub(from).Nanoseconds())/1e6)
	if !bytes.Contains(buf.Bytes(), []byte("paotr_")) {
		out.ops.fail("scrape: no paotr_ families")
	}
	return end
}

// openLoopReads sends the plan's reads at their scheduled times until
// the measured ticks are done, timing each from its scheduled send.
func (out *e2eRun) openLoopReads(ctx context.Context, srv *server, r *rep, p *Plan, t0 time.Time, begun *atomic.Int64, done <-chan struct{}) {
	var buf bytes.Buffer
	for _, rd := range p.Reads {
		due := t0.Add(time.Duration(rd.AtMs * float64(time.Millisecond)))
		select {
		case <-done:
			return
		case <-ctx.Done():
			return
		case <-time.After(time.Until(due)):
		}
		r.lateMs = append(r.lateMs, float64(time.Since(due).Nanoseconds())/1e6)
		if rd.Scrape {
			out.scrape(ctx, srv, r, due, &buf)
		} else {
			out.readResults(ctx, srv, r, p.pickReg(rd.Pick, int(begun.Load())), due, &buf)
		}
	}
}

// readPhase is the closed-loop read phase of workloads without an
// open-loop reader. A read is late by the time from the previous
// response to its send: the time the benchmark spent checking that
// response.
func (out *e2eRun) readPhase(ctx context.Context, srv *server, r *rep, p *Plan, buf *bytes.Buffer) {
	var prev time.Time
	send := func() time.Time {
		now := time.Now()
		if !prev.IsZero() {
			r.lateMs = append(r.lateMs, float64(now.Sub(prev).Nanoseconds())/1e6)
		}
		return now
	}
	for i, t0 := 0, time.Now(); i < closedResults || time.Since(t0) < p.ResultsFor; i++ {
		prev = out.readResults(ctx, srv, r, p.Base[p.ReadBase[i%len(p.ReadBase)]], send(), buf)
	}
	for i, t0 := 0, time.Now(); i < closedScrapes || time.Since(t0) < p.ScrapesFor; i++ {
		prev = out.scrape(ctx, srv, r, send(), buf)
	}
}

// cpuSeconds is the benchmark process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}
