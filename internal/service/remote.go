// Remote workers: the HTTP/JSON transport behind the coordinator/worker
// seam. A `paotrserve -worker` process serves WorkerHandler over one
// plain Service plus a local mirror of the fleet-global item relay; the
// coordinator drives it through remoteWorker, which implements Worker.
//
// Relay state syncs at tick boundaries: each tick request carries the
// delta of items other shards published since the last tick, the worker
// imports them into its mirror before ticking, and the response carries
// the purchases the worker's own caches made during the tick, which the
// coordinator publishes into the global index. A worker therefore sees a
// sibling's purchase one tick late at the earliest — the price of not
// holding a distributed lock on the hot acquire path; totals stay
// order-independent because transfers always cost frac of the recorded
// acquisition cost, whichever side resolved them.
package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"

	"paotr/internal/acquisition"
	"paotr/internal/adapt"
	"paotr/internal/engine"
	"paotr/internal/query"
	"paotr/internal/stream"
)

// workerQuery is one query registration in wire form. Executor carries
// the engine strategy name (engine.StrategyLinear/StrategyAdaptive,
// empty for the worker's default); Gap the adaptive executor's
// gap threshold.
type workerQuery struct {
	ID       string  `json:"id"`
	Query    string  `json:"query"`
	Every    int     `json:"every,omitempty"`
	Executor string  `json:"executor,omitempty"`
	Gap      float64 `json:"gap,omitempty"`
}

// encodeQueryOpts flattens QueryOptions into wire form by applying them
// to a scratch registration. engine.Executor is sealed, so the two
// strategies below are all there is to encode; a nil executor leaves the
// worker's default in place.
func encodeQueryOpts(id, text string, opts []QueryOption) workerQuery {
	var r registered
	for _, o := range opts {
		o(&r)
	}
	wq := workerQuery{ID: id, Query: text, Every: r.every}
	switch x := r.exec.(type) {
	case engine.LinearExecutor:
		wq.Executor = engine.StrategyLinear
	case engine.AdaptiveExecutor:
		wq.Executor = engine.StrategyAdaptive
		wq.Gap = x.GapThreshold
	}
	return wq
}

// decodeQueryOpts is the inverse: wire form back to QueryOptions.
func decodeQueryOpts(wq workerQuery) ([]QueryOption, error) {
	var opts []QueryOption
	if wq.Every > 0 {
		opts = append(opts, Every(wq.Every))
	}
	switch wq.Executor {
	case "":
	case engine.StrategyLinear:
		opts = append(opts, WithQueryExecutor(engine.LinearExecutor{}))
	case engine.StrategyAdaptive:
		opts = append(opts, WithQueryExecutor(engine.AdaptiveExecutor{GapThreshold: wq.Gap}))
	default:
		return nil, fmt.Errorf("service: unknown remote executor %q", wq.Executor)
	}
	return opts, nil
}

// workerTickRequest carries the coordinator's relay delta into a tick;
// workerTickResponse carries the tick result and the worker's own
// purchases back.
type workerTickRequest struct {
	RelayItems []acquisition.RelayItem `json:"relay_items,omitempty"`
}

type workerTickResponse struct {
	Result     TickResult              `json:"result"`
	RelayItems []acquisition.RelayItem `json:"relay_items,omitempty"`
}

// workerProfileResponse is the wire form of Worker.ProfileTree: the
// probability-annotated tree serializes directly (query.Tree is a plain
// streams+leaves value).
type workerProfileResponse struct {
	Tree     *query.Tree `json:"tree"`
	PredKeys []string    `json:"pred_keys"`
}

// WorkerHandler serves one shard worker's slice of the coordinator/worker
// protocol over HTTP/JSON (the `paotrserve -worker` surface). All
// endpoints live under /worker/.
type WorkerHandler struct {
	svc *Service
	// mirror is this process's mirror of the fleet-global item relay (nil
	// when the relay is off); the service's cache must have been built
	// with WithSharedRelay(mirror).
	mirror *acquisition.ItemRelay
	mux    *http.ServeMux

	mu sync.Mutex
	// exported is the mirror epoch already shipped to the coordinator.
	exported int64
	// regs remembers registrations in wire form and order, so a restarted
	// coordinator can adopt the worker's standing queries.
	regs  map[string]workerQuery
	order []string
}

// NewWorkerHandler wraps a worker service. mirror may be nil (relay
// off); when set it must be the relay the service's cache was built with
// (see WithSharedRelay).
func NewWorkerHandler(svc *Service, mirror *acquisition.ItemRelay) *WorkerHandler {
	h := &WorkerHandler{svc: svc, mirror: mirror, mux: http.NewServeMux(), regs: map[string]workerQuery{}}
	h.mux.HandleFunc("POST /worker/queries", h.handleRegister)
	h.mux.HandleFunc("POST /worker/quote", h.handleQuote)
	h.mux.HandleFunc("GET /worker/queries", h.handleList)
	h.mux.HandleFunc("DELETE /worker/queries/{id...}", h.handleUnregister)
	h.mux.HandleFunc("POST /worker/tick", h.handleTick)
	h.mux.HandleFunc("GET /worker/results/{id...}", h.handleResults)
	h.mux.HandleFunc("GET /worker/query-metrics/{id...}", h.handleQueryMetrics)
	h.mux.HandleFunc("GET /worker/metrics", h.handleMetrics)
	h.mux.HandleFunc("GET /worker/profile/{id...}", h.handleProfile)
	h.mux.HandleFunc("GET /worker/trips", h.handleTrips)
	h.mux.HandleFunc("POST /worker/evidence/export", h.handleEvidenceExport)
	h.mux.HandleFunc("POST /worker/evidence/import", h.handleEvidenceImport)
	h.mux.HandleFunc("POST /worker/cost-scale", h.handleCostScale)
	h.mux.HandleFunc("GET /worker/healthz", func(w http.ResponseWriter, r *http.Request) {
		workerJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return h
}

// ServeHTTP dispatches to the worker protocol routes under /worker/.
func (h *WorkerHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) { h.mux.ServeHTTP(w, r) }

func workerJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func workerErr(w http.ResponseWriter, status int, err error) {
	workerJSON(w, status, map[string]string{"error": err.Error()})
}

func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(io.LimitReader(r.Body, 8<<20)).Decode(v); err != nil {
		workerErr(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return false
	}
	return true
}

// decodeQuery reads a registration in wire form, answering 400 itself
// when it does not decode.
func decodeQuery(w http.ResponseWriter, r *http.Request) (workerQuery, []QueryOption, bool) {
	var wq workerQuery
	if !decodeBody(w, r, &wq) {
		return wq, nil, false
	}
	opts, err := decodeQueryOpts(wq)
	if err != nil {
		workerErr(w, http.StatusBadRequest, err)
		return wq, nil, false
	}
	return wq, opts, true
}

// registerErr answers a failed registration or quote: 409 for a taken
// id, 400 otherwise.
func registerErr(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	if errors.Is(err, ErrDuplicateID) {
		status = http.StatusConflict
	}
	workerErr(w, status, err)
}

func (h *WorkerHandler) handleRegister(w http.ResponseWriter, r *http.Request) {
	wq, opts, ok := decodeQuery(w, r)
	if !ok {
		return
	}
	if err := h.svc.Register(wq.ID, wq.Query, opts...); err != nil {
		registerErr(w, err)
		return
	}
	h.mu.Lock()
	h.regs[wq.ID] = wq
	h.order = append(h.order, wq.ID)
	h.mu.Unlock()
	workerJSON(w, http.StatusCreated, map[string]string{"status": "registered"})
}

func (h *WorkerHandler) handleQuote(w http.ResponseWriter, r *http.Request) {
	wq, opts, ok := decodeQuery(w, r)
	if !ok {
		return
	}
	q, err := h.svc.QuoteRegister(wq.ID, wq.Query, opts...)
	if err != nil {
		registerErr(w, err)
		return
	}
	workerJSON(w, http.StatusOK, q)
}

func (h *WorkerHandler) handleList(w http.ResponseWriter, r *http.Request) {
	h.mu.Lock()
	out := make([]workerQuery, 0, len(h.order))
	for _, id := range h.order {
		out = append(out, h.regs[id])
	}
	h.mu.Unlock()
	workerJSON(w, http.StatusOK, out)
}

func (h *WorkerHandler) handleUnregister(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := h.svc.Unregister(id); err != nil {
		workerErr(w, http.StatusNotFound, err)
		return
	}
	h.mu.Lock()
	delete(h.regs, id)
	for i, o := range h.order {
		if o == id {
			h.order = append(h.order[:i], h.order[i+1:]...)
			break
		}
	}
	h.mu.Unlock()
	workerJSON(w, http.StatusOK, map[string]string{"status": "unregistered"})
}

func (h *WorkerHandler) handleTick(w http.ResponseWriter, r *http.Request) {
	var req workerTickRequest
	if r.ContentLength != 0 && !decodeBody(w, r, &req) {
		return
	}
	// Serialize ticks against each other so the export epoch window
	// matches exactly one tick's purchases.
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.mirror != nil {
		h.mirror.Import(req.RelayItems)
	}
	resp := workerTickResponse{Result: h.svc.Tick()}
	if h.mirror != nil {
		resp.RelayItems, h.exported = h.mirror.Export(h.exported)
	}
	workerJSON(w, http.StatusOK, resp)
}

func (h *WorkerHandler) handleResults(w http.ResponseWriter, r *http.Request) {
	n := 0
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 0 {
			workerErr(w, http.StatusBadRequest, fmt.Errorf("invalid n %q", q))
			return
		}
		n = v
	}
	res, err := h.svc.Results(r.PathValue("id"), n)
	if err != nil {
		workerErr(w, http.StatusNotFound, err)
		return
	}
	workerJSON(w, http.StatusOK, res)
}

func (h *WorkerHandler) handleQueryMetrics(w http.ResponseWriter, r *http.Request) {
	m, err := h.svc.QueryMetrics(r.PathValue("id"))
	if err != nil {
		workerErr(w, http.StatusNotFound, err)
		return
	}
	workerJSON(w, http.StatusOK, m)
}

func (h *WorkerHandler) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := h.svc.Metrics()
	if h.mirror != nil {
		// Overlay the mirror's purchase counters: the coordinator's global
		// index only sees this worker's purchases as published items, so
		// the worker reports its own spend (see Sharded.Metrics).
		rs := h.mirror.Stats()
		m.RelayPurchases = rs.Purchases
		m.RelayTransferSpend = rs.TransferSpend
	}
	workerJSON(w, http.StatusOK, m)
}

func (h *WorkerHandler) handleProfile(w http.ResponseWriter, r *http.Request) {
	t, keys, ok := h.svc.ProfileTree(r.PathValue("id"))
	if !ok {
		workerErr(w, http.StatusNotFound, fmt.Errorf("unknown query id %q", r.PathValue("id")))
		return
	}
	workerJSON(w, http.StatusOK, workerProfileResponse{Tree: t, PredKeys: keys})
}

func (h *WorkerHandler) handleTrips(w http.ResponseWriter, r *http.Request) {
	workerJSON(w, http.StatusOK, map[string]int64{"trips": h.svc.Trips()})
}

func (h *WorkerHandler) handleEvidenceExport(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Keys []string `json:"keys"`
	}
	if !decodeBody(w, r, &req) {
		return
	}
	workerJSON(w, http.StatusOK, h.svc.ExportEvidence(req.Keys))
}

func (h *WorkerHandler) handleEvidenceImport(w http.ResponseWriter, r *http.Request) {
	var snaps []adapt.PredicateSnapshot
	if !decodeBody(w, r, &snaps) {
		return
	}
	h.svc.ImportEvidence(snaps)
	workerJSON(w, http.StatusOK, map[string]string{"status": "imported"})
}

func (h *WorkerHandler) handleCostScale(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Scale []float64 `json:"scale"`
	}
	if !decodeBody(w, r, &req) {
		return
	}
	h.svc.SetStreamCostScale(req.Scale)
	workerJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// remoteWorker drives one WorkerHandler over HTTP, implementing Worker
// for the coordinator. Transport failures on read paths degrade to zero
// values (the coordinator's merge treats the worker as idle that tick);
// failures on Register/Unregister surface as errors. Query ids are
// path-escaped (url.PathEscape) wherever they travel in a URL path: a raw
// "?", "#" or "%" would cut or corrupt the path.
type remoteWorker struct {
	base string
	hc   *http.Client
	// global is the coordinator's fleet-global relay index (nil when the
	// relay is off); clockH its pruning clock handle for this worker.
	global *acquisition.ItemRelay
	clockH int

	mu sync.Mutex
	// sent is the global-relay epoch already shipped to this worker;
	// ticks counts Tick calls, advancing the global relay's pruning clock.
	sent  int64
	ticks int64
}

func newRemoteWorker(base string, global *acquisition.ItemRelay) *remoteWorker {
	for len(base) > 0 && base[len(base)-1] == '/' {
		base = base[:len(base)-1]
	}
	rw := &remoteWorker{base: base, hc: &http.Client{}, global: global, clockH: -1}
	if global != nil {
		rw.clockH = global.Attach()
	}
	return rw
}

var _ Worker = (*remoteWorker)(nil)

// call runs one JSON round-trip. out may be nil to discard the body.
func (rw *remoteWorker) call(method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, rw.base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := rw.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		var e struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&e)
		if e.Error == "" {
			e.Error = resp.Status
		}
		return fmt.Errorf("service: worker %s %s%s: %s", method, rw.base, path, e.Error)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(io.LimitReader(resp.Body, 64<<20)).Decode(out)
}

func (rw *remoteWorker) Register(id, text string, opts ...QueryOption) error {
	return rw.call(http.MethodPost, "/worker/queries", encodeQueryOpts(id, text, opts), nil)
}

func (rw *remoteWorker) QuoteRegister(id, text string, opts ...QueryOption) (Quote, error) {
	var q Quote
	err := rw.call(http.MethodPost, "/worker/quote", encodeQueryOpts(id, text, opts), &q)
	return q, err
}

func (rw *remoteWorker) Unregister(id string) error {
	return rw.call(http.MethodDelete, "/worker/queries/"+url.PathEscape(id), nil, nil)
}

func (rw *remoteWorker) Tick() TickResult {
	rw.mu.Lock()
	defer rw.mu.Unlock()
	var req workerTickRequest
	sent := rw.sent
	if rw.global != nil {
		req.RelayItems, sent = rw.global.Export(rw.sent)
	}
	var resp workerTickResponse
	if err := rw.call(http.MethodPost, "/worker/tick", req, &resp); err != nil {
		return TickResult{}
	}
	rw.ticks++
	if rw.global != nil {
		rw.sent = sent
		rw.global.Publish(resp.RelayItems)
		rw.global.Advance(rw.clockH, rw.ticks)
	}
	return resp.Result
}

func (rw *remoteWorker) Results(id string, n int) ([]Execution, error) {
	var out []Execution
	err := rw.call(http.MethodGet, "/worker/results/"+url.PathEscape(id)+"?n="+strconv.Itoa(n), nil, &out)
	return out, err
}

func (rw *remoteWorker) QueryMetrics(id string) (QueryMetrics, error) {
	var out QueryMetrics
	err := rw.call(http.MethodGet, "/worker/query-metrics/"+url.PathEscape(id), nil, &out)
	return out, err
}

func (rw *remoteWorker) Metrics() Metrics {
	var out Metrics
	if err := rw.call(http.MethodGet, "/worker/metrics", nil, &out); err != nil {
		return Metrics{}
	}
	return out
}

func (rw *remoteWorker) ProfileTree(id string) (*query.Tree, []string, bool) {
	var out workerProfileResponse
	if err := rw.call(http.MethodGet, "/worker/profile/"+url.PathEscape(id), nil, &out); err != nil || out.Tree == nil {
		return nil, nil, false
	}
	return out.Tree, out.PredKeys, true
}

func (rw *remoteWorker) Trips() int64 {
	var out struct {
		Trips int64 `json:"trips"`
	}
	if err := rw.call(http.MethodGet, "/worker/trips", nil, &out); err != nil {
		return 0
	}
	return out.Trips
}

func (rw *remoteWorker) ExportEvidence(keys []string) []adapt.PredicateSnapshot {
	var out []adapt.PredicateSnapshot
	req := struct {
		Keys []string `json:"keys"`
	}{Keys: keys}
	if err := rw.call(http.MethodPost, "/worker/evidence/export", req, &out); err != nil {
		return nil
	}
	return out
}

func (rw *remoteWorker) ImportEvidence(snaps []adapt.PredicateSnapshot) {
	if len(snaps) == 0 {
		return
	}
	_ = rw.call(http.MethodPost, "/worker/evidence/import", snaps, nil)
}

func (rw *remoteWorker) SetStreamCostScale(scale []float64) {
	req := struct {
		Scale []float64 `json:"scale"`
	}{Scale: scale}
	_ = rw.call(http.MethodPost, "/worker/cost-scale", req, nil)
}

// listQueries reads the worker's standing registrations (adoption on
// coordinator restart).
func (rw *remoteWorker) listQueries() ([]workerQuery, error) {
	var out []workerQuery
	err := rw.call(http.MethodGet, "/worker/queries", nil, &out)
	return out, err
}

// NewShardedRemote builds the coordinator over already-running
// `paotrserve -worker` processes, one shard per endpoint. Standing
// queries the workers already hold are adopted into the coordinator's
// assignment (coordinator restart), keyed by each worker's registration
// order. Options configure the coordinator-side knobs (WithRelay,
// WithRepartitionEvery); the worker processes carry
// their own service configuration. The cross-shard duplicate ledger is
// in-process only and stays off in remote mode.
func NewShardedRemote(reg *stream.Registry, endpoints []string, opts ...Option) (*Sharded, error) {
	if len(endpoints) == 0 {
		return nil, errors.New("service: no worker endpoints")
	}
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	sh := newShardedShell(reg, len(endpoints), cfg)
	sh.workers = make([]Worker, sh.k)
	sh.locals = make([]*Service, sh.k)
	for i, ep := range endpoints {
		sh.workers[i] = newRemoteWorker(ep, sh.relay)
	}
	for i, w := range sh.workers {
		regs, err := w.(*remoteWorker).listQueries()
		if err != nil {
			return nil, fmt.Errorf("service: adopting worker %d: %w", i, err)
		}
		for _, wq := range regs {
			if _, dup := sh.assign[wq.ID]; dup {
				return nil, fmt.Errorf("service: query %q registered on two workers", wq.ID)
			}
			qopts, err := decodeQueryOpts(wq)
			if err != nil {
				return nil, fmt.Errorf("service: adopting worker %d: %w", i, err)
			}
			// The query stays where it is; recording its shape makes later
			// twins co-locate here. An adopted fleet may already hold a
			// shape split across workers; the next repartition reunites it.
			p, err := sh.placeLocked(wq.ID, wq.Query, i)
			if err != nil {
				return nil, fmt.Errorf("service: adopting worker %d: %w", i, err)
			}
			sh.addLocked(wq.ID, wq.Query, qopts, p)
		}
	}
	return sh, nil
}
