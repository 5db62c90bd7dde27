package server

// The query service endpoints:
//
//	GET    /                       the demonstration UI
//	GET    /api/datasets           list registered datasets
//	POST   /api/datasets           register (build + publish) a dataset
//	GET    /api/datasets/{name}    one dataset's summary and planner statistics
//	DELETE /api/datasets/{name}    drop a dataset
//	POST   /api/v1/query           filter, join, kNN or DBSCAN, streaming NDJSON
//	POST   /api/v1/explain         EXPLAIN with fingerprint/cache state
//	POST   /api/v1/ingest          append/delete records of a mutable dataset
//	DELETE /api/v1/datasets/{name}/records/{id}
//	GET    /api/service            cache, admission and engine statistics
//	GET    /metrics                Prometheus exposition
//
// /api/v1/query responds with application/x-ndjson: one GeoJSON
// feature per line, pulled straight off the engine's fused partition
// pipelines, followed by a single summary line
//
//	{"summary":{"dataset":...,"count":N,"cache":"hit|miss|bypass","fingerprint":...}}
//
// A plain filter's results are cached under the chain's plan
// fingerprint: a repeated identical query is served from the stored
// bytes without scheduling any engine work (the X-Stark-Cache header
// says which path served the response). Cache misses pass through
// admission control; hits bypass it. A request carrying one of the
// ops "join", "knn" or "cluster" runs that op over the (optionally
// filtered) dataset instead: it always passes admission and bypasses
// the cache.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime"
	"strings"
	"time"

	"stark"
	"stark/internal/plan"
	"stark/internal/workload"
)

// DefaultDataset is the catalog name a request without a dataset
// addresses — the dataset the demonstration UI and starkd's -events
// flag use.
const DefaultDataset = "default"

// ServiceQueryRequest is a QueryRequest addressed to a named catalog
// dataset ("" selects DefaultDataset). At most one of the ops Join,
// KNN and Cluster may be set; each runs over the dataset after the
// request's filter (when any filter field is set) and streams its
// rows back as NDJSON. Without an op the request is a plain filter.
type ServiceQueryRequest struct {
	Dataset string `json:"dataset"`
	QueryRequest
	Join    *JoinSpec       `json:"join,omitempty"`
	KNN     *KNNRequest     `json:"knn,omitempty"`
	Cluster *ClusterRequest `json:"cluster,omitempty"`
	// Trace requests an execution trace: the summary line gains a
	// "trace" object (plan phases, wall times, per-query engine
	// counters). Traced requests bypass the result cache in both
	// directions, so the trace always describes a real execution.
	Trace bool `json:"trace,omitempty"`
}

// op names the request's op ("" for a plain filter), or errors when
// more than one is set.
func (req ServiceQueryRequest) op() (string, error) {
	var ops []string
	if req.Join != nil {
		ops = append(ops, "join")
	}
	if req.KNN != nil {
		ops = append(ops, "knn")
	}
	if req.Cluster != nil {
		ops = append(ops, "cluster")
	}
	switch len(ops) {
	case 0:
		return "", nil
	case 1:
		return ops[0], nil
	}
	return "", fmt.Errorf("set at most one of join, knn and cluster, not %s", strings.Join(ops, " and "))
}

// hasFilter reports whether any filter field is set.
func (req QueryRequest) hasFilter() bool {
	return req.WKT != "" || req.Predicate != "" || req.HasTime || req.Distance != 0 || len(req.Where) > 0
}

// JoinSpec describes the join clause of a service query.
type JoinSpec struct {
	// With names the right-side catalog dataset ("" selects
	// DefaultDataset).
	With string `json:"with"`
	// Predicate is one of intersects (default), contains,
	// containedby, coveredby, withindistance.
	Predicate string `json:"predicate"`
	// Distance parameterises withindistance.
	Distance float64 `json:"distance"`
	// Strategy forces a physical join strategy: auto (default),
	// pairs, broadcast, copartition.
	Strategy string `json:"strategy"`
}

// joinRow is the record type of a service join result.
type joinRow = stark.JoinRow[workload.Event, workload.Event]

// buildJoinOn compiles a JoinSpec into a join chain over the two
// datasets, returning the chain and the report its execution fills.
func buildJoinOn(left *stark.Dataset[workload.Event], right *stark.Dataset[workload.Event], spec *JoinSpec) (*stark.Dataset[joinRow], *stark.JoinReport, error) {
	named, err := namedPredicate(spec.Predicate, spec.Distance)
	if err != nil {
		return nil, nil, fmt.Errorf("join %w", err)
	}
	pred, expand := named.Predicate()
	var strategy stark.JoinStrategy
	switch strings.ToLower(spec.Strategy) {
	case "auto", "":
		strategy = stark.JoinAuto
	case "pairs":
		strategy = stark.JoinPairs
	case "broadcast":
		strategy = stark.JoinBroadcast
	case "copartition":
		strategy = stark.JoinCoPartition
	default:
		return nil, nil, fmt.Errorf("unknown join strategy %q", spec.Strategy)
	}
	rep := &stark.JoinReport{}
	ds := stark.Join(left, right, stark.JoinOptions{
		Predicate:      pred,
		IndexOrder:     -1,
		ProbeExpansion: expand,
		Strategy:       strategy,
		Report:         rep,
	})
	return ds, rep, nil
}

// source resolves the dataset a service query addresses and applies
// the request's filter whenever any filter field is set — a
// constraint a plain filter would reject (a temporal window without a
// geometry) must error for every op too, not be dropped. Errors are
// written to w.
func (s *Server) source(w http.ResponseWriter, req ServiceQueryRequest) (*stark.Dataset[workload.Event], *catalogEntry, bool) {
	entry, ok := s.resolveDataset(w, req.Dataset)
	if !ok {
		return nil, nil, false
	}
	ds := entry.dataset()
	if req.hasFilter() {
		var err error
		if ds, err = buildFilterOn(ds, req.QueryRequest); err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return nil, nil, false
		}
	}
	return ds, entry, true
}

// joinChain resolves both sides of a join request and builds the
// chain: the request's filter applies to the left side.
func (s *Server) joinChain(w http.ResponseWriter, req ServiceQueryRequest) (*stark.Dataset[joinRow], *stark.JoinReport, *catalogEntry, bool) {
	left, entry, ok := s.source(w, req)
	if !ok {
		return nil, nil, nil, false
	}
	rightEntry, ok := s.resolveDataset(w, req.Join.With)
	if !ok {
		return nil, nil, nil, false
	}
	chain, rep, err := buildJoinOn(left, rightEntry.dataset(), req.Join)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return nil, nil, nil, false
	}
	return chain, rep, entry, true
}

// acquireAdmission passes the request through the admission-control
// worker pool, writing the overload response (429 saturated / 503
// queue deadline) on failure. On true the caller owns a slot and
// must s.adm.Release() it.
func (s *Server) acquireAdmission(w http.ResponseWriter, r *http.Request) bool {
	err := s.adm.Acquire(r.Context())
	if err == nil {
		return true
	}
	switch {
	case errors.Is(err, ErrQueueFull):
		httpError(w, http.StatusTooManyRequests, "server saturated: %v", err)
	case errors.Is(err, ErrQueueTimeout):
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable, "queue deadline exceeded: %v", err)
	default:
		// Client went away while queued; nothing useful to write.
		log.Printf("server: admission aborted: %v", err)
	}
	return false
}

// handleJoinQuery executes the join op of a service query and
// streams the matching pairs as NDJSON: one GeoJSON feature per line
// (the left record's geometry) with the right record folded into the
// properties. Join results are not result-cached — a join
// materialises a fresh result dataset per request, so its
// fingerprint could never hit. That materialisation also means the
// full pair set lives in memory before the first byte streams
// (unlike the filter path, which streams straight off the fused
// pipelines); admission control bounds how many such requests run
// at once.
func (s *Server) handleJoinQuery(w http.ResponseWriter, r *http.Request, req ServiceQueryRequest) {
	chain, rep, entry, ok := s.joinChain(w, req)
	if !ok {
		return
	}
	if !s.acquireAdmission(w, r) {
		return
	}
	defer s.adm.Release()

	if err := chain.Run(); err != nil {
		httpError(w, http.StatusInternalServerError, "join failed: %v", err)
		return
	}
	rw := startRows(w, "bypass", false, 0)
	err := chain.StreamParallelContext(r.Context(), func(kv stark.Tuple[joinRow]) bool {
		props := eventProps(kv.Value.Left)
		props["right"] = eventProps(kv.Value.Right)
		return rw.write(kv.Key, props)
	})
	rw.finish(r, err, ndjsonSummary{
		Dataset: entry.spec.Name, Cache: "bypass", Strategy: rep.Strategy.String(),
	}, chain.Trace(), req.Trace)
}

// featureRow is one record an action op streams: its key and its
// feature properties.
type featureRow = stark.Tuple[map[string]interface{}]

// serveAction runs an action op (kNN, DBSCAN) over the request's
// dataset under admission and streams the rows it returns, uncached;
// clusters, when non-nil, goes into the summary.
func (s *Server) serveAction(w http.ResponseWriter, r *http.Request, req ServiceQueryRequest, op string,
	action func(ds *stark.Dataset[workload.Event]) (rows []featureRow, clusters *int, err error)) {
	ds, entry, ok := s.source(w, req)
	if !ok {
		return
	}
	if !req.hasFilter() {
		// A per-request view of the shared catalog dataset, so the
		// action's trace phases land on the view instead of
		// accumulating on the base.
		ds = ds.Optimize(true)
	}
	if !s.acquireAdmission(w, r) {
		return
	}
	defer s.adm.Release()

	rows, clusters, err := action(ds)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%s failed: %v", op, err)
		return
	}
	rw := startRows(w, "bypass", false, 0)
	for _, row := range rows {
		if !rw.write(row.Key, row.Value) {
			break
		}
	}
	rw.finish(r, nil, ndjsonSummary{Dataset: entry.spec.Name, Cache: "bypass", Clusters: clusters}, ds.Trace(), req.Trace)
}

// handleKNNQuery executes the knn op of a service query: the k
// nearest records, nearest first, each with a "distance" property.
// The search stops when the client hangs up.
func (s *Server) handleKNNQuery(w http.ResponseWriter, r *http.Request, req ServiceQueryRequest) {
	q, err := stark.FromWKT(req.KNN.WKT)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad knn query: %v", err)
		return
	}
	if req.KNN.K <= 0 {
		httpError(w, http.StatusBadRequest, "knn k must be >= 1")
		return
	}
	s.serveAction(w, r, req, "knn", func(ds *stark.Dataset[workload.Event]) ([]featureRow, *int, error) {
		nbrs, err := ds.KNNContext(r.Context(), q, req.KNN.K)
		rows := make([]featureRow, len(nbrs))
		for i, nb := range nbrs {
			props := eventProps(nb.Value)
			props["distance"] = nb.Distance
			rows[i] = stark.NewTuple(nb.Key, props)
		}
		return rows, nil, err
	})
}

// handleClusterQuery executes the cluster op of a service query:
// DBSCAN over the dataset, every record with its "cluster" label
// (ClusterNoise for noise) and the number of clusters in the summary.
func (s *Server) handleClusterQuery(w http.ResponseWriter, r *http.Request, req ServiceQueryRequest) {
	opts := stark.ClusterOptions{Eps: req.Cluster.Eps, MinPts: req.Cluster.MinPts}
	if opts.Eps <= 0 || opts.MinPts < 1 {
		httpError(w, http.StatusBadRequest, "cluster needs eps > 0 and minPts >= 1")
		return
	}
	s.serveAction(w, r, req, "cluster", func(ds *stark.Dataset[workload.Event]) ([]featureRow, *int, error) {
		recs, n, err := ds.Cluster(opts)
		rows := make([]featureRow, len(recs))
		for i, rec := range recs {
			props := eventProps(rec.Value)
			props["cluster"] = rec.Cluster
			rows[i] = stark.NewTuple(rec.Key, props)
		}
		return rows, &n, err
	})
}

// rowWriter is the one NDJSON row encoder behind every /api/v1/query
// op: it commits the response headers, writes one GeoJSON feature
// per line, and for a cacheable filter also collects the lines for
// the result cache until they outgrow the per-entry budget.
type rowWriter struct {
	w      http.ResponseWriter
	buf    *bytes.Buffer // nil when the rows are not cached
	maxBuf int64
	count  int64
	err    error
}

// startRows commits the NDJSON response headers; cacheable rows are
// collected up to maxBuf bytes.
func startRows(w http.ResponseWriter, cache string, cacheable bool, maxBuf int64) *rowWriter {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Stark-Cache", cache)
	rw := &rowWriter{w: w, maxBuf: maxBuf}
	if cacheable {
		rw.buf = &bytes.Buffer{}
	}
	return rw
}

// write encodes one feature line; false (the first error kept in
// rw.err) tells the producer to stop.
func (rw *rowWriter) write(key stark.STObject, props map[string]interface{}) bool {
	line, err := json.Marshal(feature(key, props))
	if err != nil {
		rw.err = err
		return false
	}
	line = append(line, '\n')
	if _, err := rw.w.Write(line); err != nil {
		rw.err = err
		return false
	}
	if rw.buf != nil {
		if int64(rw.buf.Len()+len(line)) > rw.maxBuf {
			rw.buf = nil
		} else {
			rw.buf.Write(line)
		}
	}
	rw.count++
	return true
}

// finish ends the stream: it logs the request's trace summary and
// writes the summary line (with the trace when the request asked for
// it), or — when producing or writing the rows failed — logs the
// abort and reports false. The status line is committed by then, so
// an abort can only show as a stream without a summary line.
func (rw *rowWriter) finish(r *http.Request, err error, sum ndjsonSummary, trace *plan.TraceNode, traced bool) bool {
	if err == nil {
		err = rw.err
	}
	if err != nil {
		log.Printf("server: aborting NDJSON stream after %d rows: %v", rw.count, err)
		return false
	}
	sum.Count = rw.count
	annotate(r, sum.Fingerprint, traceSummary(trace))
	if traced {
		sum.Trace = trace
	}
	writeSummaryLine(rw.w, sum)
	return true
}

// resolveDataset returns the catalog entry a service request
// addresses, writing the HTTP error on failure.
func (s *Server) resolveDataset(w http.ResponseWriter, name string) (*catalogEntry, bool) {
	if name == "" {
		name = DefaultDataset
	}
	entry, ok := s.catalog.Get(name)
	if !ok {
		httpError(w, http.StatusNotFound, "unknown dataset %q", name)
		return nil, false
	}
	return entry, true
}

// handleDatasets serves GET (list) and POST (register) on
// /api/datasets.
func (s *Server) handleDatasetsList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]interface{}{"datasets": s.catalog.List()})
}

func (s *Server) handleDatasetsRegister(w http.ResponseWriter, r *http.Request) {
	var spec DatasetSpec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		httpError(w, http.StatusBadRequest, "bad request: %v", err)
		return
	}
	entry, err := s.catalog.Register(s.ctx, spec)
	if err != nil {
		httpError(w, http.StatusBadRequest, "register: %v", err)
		return
	}
	writeJSON(w, entry.info())
}

func (s *Server) handleDatasetGet(w http.ResponseWriter, r *http.Request) {
	entry, ok := s.resolveDataset(w, r.PathValue("name"))
	if !ok {
		return
	}
	summary, _ := entry.stats()
	writeJSON(w, map[string]interface{}{
		"dataset": entry.info(),
		"planner": summary,
	})
}

func (s *Server) handleDatasetDrop(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	existed, err := s.catalog.Drop(name)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "drop failed: %v", err)
		return
	}
	if !existed {
		httpError(w, http.StatusNotFound, "unknown dataset %q", name)
		return
	}
	writeJSON(w, map[string]string{"dropped": name})
}

// handleServiceStats reports the engine parallelism, the cache and
// admission state, the engine counter totals and Go runtime health —
// one JSON document a probe can poll without scraping /metrics.
func (s *Server) handleServiceStats(w http.ResponseWriter, r *http.Request) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	durability := map[string]interface{}{"enabled": false}
	if s.dur != nil {
		durability = s.dur.status()
	}
	writeJSON(w, map[string]interface{}{
		"durability":     durability,
		"parallelism":    s.ctx.Parallelism(),
		"cache":          s.cache.Stats(),
		"admission":      s.adm.Stats(),
		"datasets":       len(s.catalog.List()),
		"engine":         s.ctx.Metrics().Snapshot(),
		"startTime":      s.tel.start.UTC().Format(time.RFC3339),
		"uptimeSeconds":  time.Since(s.tel.start).Seconds(),
		"goroutines":     runtime.NumGoroutine(),
		"heapInuseBytes": ms.HeapInuse,
	})
}

// handleQueryV1 executes a service query against a named dataset and
// streams the result as NDJSON. A plain filter serves repeated
// queries from the plan-fingerprint cache; the join, knn and cluster
// ops run under admission and bypass it.
func (s *Server) handleQueryV1(w http.ResponseWriter, r *http.Request) {
	var req ServiceQueryRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request: %v", err)
		return
	}
	switch op, err := req.op(); {
	case err != nil:
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	case op == "join":
		s.handleJoinQuery(w, r, req)
		return
	case op == "knn":
		s.handleKNNQuery(w, r, req)
		return
	case op == "cluster":
		s.handleClusterQuery(w, r, req)
		return
	}
	entry, ok := s.resolveDataset(w, req.Dataset)
	if !ok {
		return
	}
	chain, err := buildFilterOn(entry.dataset(), req.QueryRequest)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}

	fp, fpErr := chain.Fingerprint()
	if fpErr == nil {
		annotate(r, fp, "")
	}
	if fpErr == nil && !req.Trace {
		if body, rows, hit := s.cache.Get(fp); hit {
			s.writeNDJSON(w, body, ndjsonSummary{
				Dataset: entry.spec.Name, Count: rows, Cache: "hit", Fingerprint: fp,
			})
			return
		}
	}

	if !s.acquireAdmission(w, r) {
		return
	}
	defer s.adm.Release()

	// Compile before committing the response status, so chain and
	// planning errors still map to an HTTP error code.
	if err := chain.Run(); err != nil {
		httpError(w, http.StatusInternalServerError, "query failed: %v", err)
		return
	}

	rw := startRows(w, "miss", fpErr == nil && !req.Trace, s.cache.MaxEntryBytes())
	err = chain.StreamParallelContext(r.Context(), func(kv stark.Tuple[workload.Event]) bool {
		return rw.write(kv.Key, eventProps(kv.Value))
	})
	sum := ndjsonSummary{Dataset: entry.spec.Name, Cache: "miss", Fingerprint: fp}
	if rw.finish(r, err, sum, chain.Trace(), req.Trace) && rw.buf != nil {
		// buf is dead after this call; Put takes ownership.
		s.cache.Put(fp, rw.buf.Bytes(), rw.count)
	}
}

// traceSummary condenses a trace into the one-line form the
// slow-query log carries.
func traceSummary(t *plan.TraceNode) string {
	if t == nil {
		return ""
	}
	return fmt.Sprintf("wall_ms=%.2f rows=%d elements_scanned=%d index_probes=%d kernel_batches=%d",
		float64(t.WallNS)/1e6, t.Rows,
		t.Counter("elements_scanned"), t.Counter("index_probes"), t.Counter("kernel_batches"))
}

// ndjsonSummary is the trailing line of an NDJSON response.
type ndjsonSummary struct {
	Dataset     string `json:"dataset"`
	Count       int64  `json:"count"`
	Cache       string `json:"cache"`
	Fingerprint string `json:"fingerprint,omitempty"`
	// Strategy is the physical join strategy that ran (join queries
	// only).
	Strategy string `json:"strategy,omitempty"`
	// Clusters is the number of DBSCAN clusters found (cluster
	// queries only).
	Clusters *int `json:"clusters,omitempty"`
	// Trace is the execution trace (requests with "trace": true only).
	Trace *plan.TraceNode `json:"trace,omitempty"`
}

func writeSummaryLine(w io.Writer, sum ndjsonSummary) {
	b, _ := json.Marshal(map[string]ndjsonSummary{"summary": sum})
	_, _ = w.Write(append(b, '\n'))
}

// writeNDJSON serves a cached body plus a fresh summary line.
func (s *Server) writeNDJSON(w http.ResponseWriter, body []byte, sum ndjsonSummary) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Stark-Cache", sum.Cache)
	if _, err := w.Write(body); err != nil {
		log.Printf("server: aborting cached NDJSON stream: %v", err)
		return
	}
	writeSummaryLine(w, sum)
}

// handleExplainV1 renders the plan for a query against a named
// dataset, annotated with its fingerprint and cache state.
func (s *Server) handleExplainV1(w http.ResponseWriter, r *http.Request) {
	var req ServiceQueryRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request: %v", err)
		return
	}
	switch op, err := req.op(); {
	case err != nil:
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	case op == "join":
		s.explainJoin(w, r, req)
		return
	case op != "":
		httpError(w, http.StatusBadRequest, "explain supports filter and join queries, not %s", op)
		return
	}
	entry, ok := s.resolveDataset(w, req.Dataset)
	if !ok {
		return
	}
	chain, err := buildFilterOn(entry.dataset(), req.QueryRequest)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	fp, fpErr := chain.Fingerprint()
	// ExplainNode executes the filter for its actual counters, so it
	// passes admission like the query itself.
	if !s.acquireAdmission(w, r) {
		return
	}
	defer s.adm.Release()
	node, err := chain.ExplainNode()
	if err != nil {
		httpError(w, http.StatusInternalServerError, "explain failed: %v", err)
		return
	}
	resp := map[string]interface{}{
		"dataset": entry.spec.Name,
		"plan":    node,
		"text":    node.Render(),
	}
	if fpErr == nil {
		resp["fingerprint"] = fp
		resp["cached"] = s.cache.Contains(fp)
	} else {
		resp["fingerprintError"] = fpErr.Error()
	}
	writeJSON(w, resp)
}

// explainJoin renders the plan of a join query with the strategy it
// chose.
func (s *Server) explainJoin(w http.ResponseWriter, r *http.Request, req ServiceQueryRequest) {
	chain, rep, entry, ok := s.joinChain(w, req)
	if !ok {
		return
	}
	// Explaining a join executes it (ExplainNode runs the chain for the
	// actual counters) — that work must pass through the same
	// admission gate as the query path, or the explain endpoint
	// becomes an unbounded side door to full joins.
	if !s.acquireAdmission(w, r) {
		return
	}
	defer s.adm.Release()
	node, err := chain.ExplainNode()
	if err != nil {
		httpError(w, http.StatusInternalServerError, "explain failed: %v", err)
		return
	}
	writeJSON(w, map[string]interface{}{
		"dataset":  entry.spec.Name,
		"plan":     node,
		"text":     node.Render(),
		"strategy": rep.Strategy.String(),
		"cache":    "bypass",
	})
}
