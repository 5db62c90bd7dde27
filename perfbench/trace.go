package main

// The traced run. It replays a fixed sample of the workload's
// operations in process, calling each layer's public entry point in
// turn and recording a span around every call from this file: name,
// start, end, parent and the request id the spans of one operation
// share. Spans stay in memory and are written out when the run ends.
// The per-layer metrics are medians of span self times (a span's
// duration minus what its children cover) plus counts the program
// already exposes.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"stark"
	"stark/internal/wal"
)

// span is one recorded interval.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // -1 for a root
	Req    int64         `json:"req"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer holds the spans of one run.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent int, req int64) int {
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Req: req, Name: name, Start: now})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// timed runs fn inside a span.
func (t *tracer) timed(name string, parent int, req int64, fn func(id int) error) (time.Duration, error) {
	id := t.begin(name, parent, req)
	start := time.Now()
	err := fn(id)
	d := time.Since(start)
	t.end(id)
	return d, err
}

// selfTimes returns each span's duration minus the time its children
// cover (children of one parent run one after another).
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.dur()
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// medianSelf is the median self time of the spans named name.
func (t *tracer) medianSelf(name string, unit time.Duration) float64 {
	self := t.selfTimes()
	var xs []float64
	for i, s := range t.spans {
		if s.Name == name {
			xs = append(xs, float64(self[i])/float64(unit))
		}
	}
	return median(xs)
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// table renders per span name: count, median and total self time.
func (t *tracer) table(w io.Writer) {
	self := t.selfTimes()
	byName := map[string][]float64{}
	for i, s := range t.spans {
		byName[s.Name] = append(byName[s.Name], us(self[i]))
	}
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-22s %7s %14s %14s\n", "span", "count", "self p50 us", "self total ms")
	for _, n := range names {
		var total float64
		for _, v := range byName[n] {
			total += v
		}
		fmt.Fprintf(w, "%-22s %7d %14.1f %14.2f\n", n, len(byName[n]), median(byName[n]), total/1000)
	}
}

// hashOf fingerprints a response's feature lines.
func hashOf(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// ---- the DSL side of a query ----

// wev is the payload of the in-process replicas.
type wev struct {
	ID   int64
	Cat  string
	Time int64
}

var wevSchema = stark.NewAttrSchema[wev]().
	Int64("id", func(e wev) int64 { return e.ID }).
	String("category", func(e wev) string { return e.Cat }).
	Int64("time", func(e wev) int64 { return e.Time })

func timedKey(e event) (stark.STObject, error) {
	return stark.FromWKTWithTime(e.wkt(), stark.Instant(e.T))
}

// chainFor builds the DSL chain a query request compiles to: the where
// clauses, then the spatio-temporal predicate.
func chainFor(ds *stark.Dataset[wev], q *query) (*stark.Dataset[wev], error) {
	switch q.where {
	case whereSelective:
		ds = ds.WithSchema(wevSchema).FilterEq("category", q.cat).FilterRange("id", q.idLo, q.idHi)
	case whereUnselective:
		ds = ds.WithSchema(wevSchema).FilterRange("time", q.wtLo, q.wtHi)
	}
	iv, err := stark.NewInterval(stark.Instant(q.tb), stark.Instant(q.te))
	if err != nil {
		return nil, err
	}
	if q.kind == kindWindow {
		g, err := stark.ParseWKT(fmt.Sprintf("POLYGON ((%s %s, %s %s, %s %s, %s %s, %s %s))",
			num(q.x1), num(q.y1), num(q.x2), num(q.y1), num(q.x2), num(q.y2), num(q.x1), num(q.y2), num(q.x1), num(q.y1)))
		if err != nil {
			return nil, err
		}
		return ds.Intersects(stark.NewSTObjectWithInterval(g, iv)), nil
	}
	return ds.WithinDistance(stark.NewSTObjectWithInterval(stark.NewPoint(q.cx, q.cy), iv), q.r, nil), nil
}

// ---- replays ----

// replayResult is what one replay stage measured.
type replayResult struct {
	metrics     map[string]float64
	overheadUS  float64 // traced minus untraced time of the same work
	unaccounted float64 // share of client time no span covers
}

// wrapped is server B's handler: it records a server.handler span
// under the client span named in the request headers.
func wrapped(tr *tracer, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		parent, _ := strconv.Atoi(req.Header.Get("X-Bench-Span"))
		id, _ := strconv.ParseInt(req.Header.Get("X-Bench-Req"), 10, 64)
		s := tr.begin("server.handler", parent, id)
		h.ServeHTTP(w, req)
		tr.end(s)
	})
}

// registerInMemory registers a dataset through ServeHTTP.
func registerInMemory(h http.Handler, body []byte) error {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/datasets", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		return fmt.Errorf("register: status %d: %s", rec.Code, rec.Body.Bytes())
	}
	return nil
}

// replayQueries replays the query sample: in-memory ServeHTTP on
// server A, a loopback round trip to server B, and the same request's
// chain through the DSL on a replica built step by step.
func (r *runner) replayQueries(tr *tracer, in replayInputs) (*replayResult, error) {
	res := &replayResult{metrics: map[string]float64{}}
	m := res.metrics
	const name = "events"
	regBody := datasetBody(name, in.queryEvents, false)
	for _, q := range in.querySample {
		q.encode(name)
	}

	// The replica, built one layer at a time.
	ctx := stark.NewContext(0)
	tuples := make([]stark.Tuple[wev], len(in.queryEvents))
	for i, e := range in.queryEvents {
		k, err := timedKey(e)
		if err != nil {
			return nil, err
		}
		tuples[i] = stark.NewTuple(k, wev{ID: e.ID, Cat: e.Cat, Time: e.T})
	}
	base := stark.Parallelize(ctx, tuples).Cache()
	if err := base.Run(); err != nil {
		return nil, err
	}
	part := base.PartitionBy(stark.Grid(8))
	col := part.Columnar()
	steps := []struct {
		name string
		fn   func() error
	}{
		{"partition.build", part.Run},
		{"colstore.build", col.Run},
		{"stats.build", func() error { _, err := col.Stats(); return err }},
		{"attr.build", func() error { return col.WithSchema(wevSchema).AttrIndex("id", "category", "time").Run() }},
	}
	for _, s := range steps {
		d, err := tr.timed(s.name, -1, 0, func(int) error { return s.fn() })
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
		m[s.name+"_ms"] = ms(d)
	}

	srvA, srvB := quietServer(), quietServer()
	for _, h := range []http.Handler{srvA, srvB} {
		if err := registerInMemory(h, regBody); err != nil {
			return nil, err
		}
	}
	tsB := httptest.NewServer(wrapped(tr, srvB))
	defer tsB.Close()
	// Bring servers and replica to the measured run's state, lazy
	// sidecars built: each query is warmed by a variant over the whole
	// time range, which builds the same sidecars but leaves the
	// sample's own requests uncached.
	warm := make([]*query, len(in.querySample))
	for i, q := range in.querySample {
		w := *q
		w.tb, w.te = 0, timeRange
		w.encode(name)
		warm[i] = &w
	}
	for _, q := range warm {
		for _, h := range []http.Handler{srvA, srvB} {
			h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/api/v1/query", bytes.NewReader(q.body)))
		}
		if ch, err := chainFor(col, q); err == nil {
			_, _ = ch.Count() // warm-up only; the traced pass checks the answers
		}
	}

	client := newHTTPClient(1)
	var httpUS, selfUS, encNS, transUS []float64
	var clientTotal, uncovered time.Duration
	var rows int64
	coldRows := make([]uint64, len(in.querySample)) // hash of each miss's feature lines
	before := ctx.Metrics().Snapshot()
	for i, q := range in.querySample {
		req := int64(i + 1)
		r.attempted.Add(1)
		// Server A: ServeHTTP into memory.
		rec := httptest.NewRecorder()
		dHTTP, _ := tr.timed("server.http", -1, req, func(int) error {
			srvA.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/query", bytes.NewReader(q.body)))
			return nil
		})
		if !r.status("replay query", rec.Code, rec.Body.Bytes()) {
			continue
		}
		sum, featureLines, err := r.chk.checkQuery(rec.Body.Bytes(), q.want)
		if err != nil {
			r.fail("replay query", err)
			continue
		}
		coldRows[i] = hashOf(featureLines)
		miss := rec.Header().Get("X-Stark-Cache") != "hit"

		// Server B: the same request over loopback.
		var handler time.Duration
		dClient, err := tr.timed("client", -1, req, func(id int) error {
			hreq, _ := http.NewRequest(http.MethodPost, tsB.URL+"/api/v1/query", bytes.NewReader(q.body))
			hreq.Header.Set("X-Bench-Span", strconv.Itoa(id))
			hreq.Header.Set("X-Bench-Req", strconv.FormatInt(req, 10))
			resp, err := client.Do(hreq)
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			_, err = io.Copy(io.Discard, resp.Body)
			return err
		})
		if err != nil {
			r.fail("replay round trip", err)
			continue
		}
		tr.mu.Lock()
		for j := len(tr.spans) - 1; j >= 0; j-- {
			if s := tr.spans[j]; s.Name == "server.handler" && s.Req == req {
				handler = s.dur()
				break
			}
		}
		tr.mu.Unlock()

		// The DSL: fingerprint, compile, execute on a fresh chain.
		var dFP, dCompile, dExec time.Duration
		_, err = tr.timed("dsl", -1, req, func(id int) error {
			ch, err := chainFor(col, q)
			if err != nil {
				return err
			}
			if dFP, err = tr.timed("stark.fingerprint", id, req, func(int) error { _, err := ch.Fingerprint(); return err }); err != nil {
				return err
			}
			if dCompile, err = tr.timed("plan.compile", id, req, func(int) error { return ch.Run() }); err != nil {
				return err
			}
			var n int64
			dExec, err = tr.timed("core.execute", id, req, func(int) error { n, err = ch.Count(); return err })
			if err == nil && n != q.want {
				err = fmt.Errorf("DSL count %d, oracle %d", n, q.want)
			}
			return err
		})
		if err != nil {
			r.fail("replay chain", err)
			continue
		}

		self := dHTTP - dFP
		if miss {
			self -= dCompile + dExec
		}
		httpUS = append(httpUS, us(dHTTP))
		selfUS = append(selfUS, us(self))
		if sum.Count > 0 {
			encNS = append(encNS, float64(self)/float64(sum.Count))
		}
		transUS = append(transUS, us(dClient-handler))
		clientTotal += dClient
		uncovered += dClient - handler
		rows += sum.Count
	}
	delta := ctx.Metrics().Snapshot()
	n := float64(len(in.querySample))
	scanned := float64(delta.ElementsScanned - before.ElementsScanned)
	m["server.http_us"] = median(httpUS)
	m["server.self_us"] = median(selfUS)
	m["server.encode_ns_per_row"] = median(encNS)
	m["server.transport_us"] = median(transUS)
	m["stark.fingerprint_us"] = tr.medianSelf("stark.fingerprint", time.Microsecond)
	m["plan.compile_us"] = tr.medianSelf("plan.compile", time.Microsecond)
	m["core.execute_us"] = tr.medianSelf("core.execute", time.Microsecond)
	m["engine.scanned_per_row"] = scanned / float64(max(rows, 1))
	launched, skipped := delta.TasksLaunched-before.TasksLaunched, delta.TasksSkipped-before.TasksSkipped
	m["engine.tasks_skipped_ratio"] = float64(skipped) / float64(max(launched+skipped, 1))
	m["colstore.survivor_ratio"] = float64(delta.KernelSurvivors-before.KernelSurvivors) / max(scanned, 1)
	m["core.refined_per_row"] = float64(delta.CandidatesRefined-before.CandidatesRefined) / float64(max(rows, 1))
	m["engine.index_probes_per_query"] = float64(delta.IndexProbes-before.IndexProbes) / n
	if clientTotal > 0 {
		res.unaccounted = float64(uncovered) / float64(clientTotal)
	}

	// The cache-hit path: the sample again on server A, where every
	// request is now cached; each hit must return the feature lines
	// its miss returned.
	var hitUS []float64
	for i, q := range in.querySample {
		req := int64(len(in.querySample) + i + 1)
		r.attempted.Add(1)
		rec := httptest.NewRecorder()
		d, _ := tr.timed("server.hit", -1, req, func(int) error {
			srvA.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/query", bytes.NewReader(q.body)))
			return nil
		})
		if !r.status("replay hit", rec.Code, rec.Body.Bytes()) {
			continue
		}
		sum, featureLines, err := r.chk.checkQuery(rec.Body.Bytes(), q.want)
		if err == nil && sum.Cache != "hit" {
			err = fmt.Errorf("repeated request answered with cache %q", sum.Cache)
		}
		if err == nil && hashOf(featureLines) != coldRows[i] {
			err = fmt.Errorf("cache hit rows differ from the miss's rows")
		}
		if err != nil {
			r.fail("replay hit", err)
			continue
		}
		hitUS = append(hitUS, us(d))
	}
	m["server.hit_http_us"] = median(hitUS)

	// Tracing overhead: the DSL step again, untraced, against the
	// traced medians of the same work.
	var traced, untraced []float64
	for i := range tr.spans {
		if tr.spans[i].Name == "dsl" {
			traced = append(traced, us(tr.spans[i].dur()))
		}
	}
	for _, q := range in.querySample {
		start := time.Now()
		if ch, err := chainFor(col, q); err == nil {
			_, _ = ch.Fingerprint()
			_ = ch.Run()
			_, _ = ch.Count() // answers were checked on the traced pass
		}
		untraced = append(untraced, us(time.Since(start)))
	}
	res.overheadUS = median(traced) - median(untraced)
	return res, nil
}

// replayIngest replays a fixed batch sequence twice: through a durable
// server's ServeHTTP (ingest, checkpoint, reopen) and through the DSL's
// MutableDataset with a WAL append in its commit hook.
func (r *runner) replayIngest(tr *tracer, initial []event, s *skew, sample []*query) (*replayResult, error) {
	res := &replayResult{metrics: map[string]float64{}}
	m := res.metrics
	sz := r.cfg.sizes
	mdl := newModel(initial)
	batches := make([]*batch, sz.traceBatches)
	for i := range batches {
		batches[i] = mdl.nextBatch(s, sz.batchOps)
		mdl.apply(batches[i])
	}

	// The server side.
	dir, err := os.MkdirTemp(r.cfg.out, "replay-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	srv := quietServer()
	if _, err := srv.EnableDurability(dir, 0); err != nil {
		return nil, err
	}
	if err := registerInMemory(srv, datasetBody(liveName, initial, true)); err != nil {
		return nil, err
	}
	metricsOf := func(h http.Handler) (map[string]float64, error) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		return parseExposition(rec.Body)
	}
	before, err := metricsOf(srv)
	if err != nil {
		return nil, err
	}
	var userB int64
	for i, b := range batches {
		req := int64(i + 1)
		r.attempted.Add(1)
		rec := httptest.NewRecorder()
		tr.timed("server.ingest", -1, req, func(int) error {
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/ingest?dataset="+liveName, bytes.NewReader(b.body)))
			return nil
		})
		if !r.status("replay ingest", rec.Code, rec.Body.Bytes()) {
			continue
		}
		userB += int64(len(b.body))
		if (i+1)%sz.checkpointK == 0 {
			if _, err := tr.timed("server.checkpoint", -1, req, func(int) error { return srv.Checkpoint() }); err != nil {
				r.fail("replay checkpoint", err)
			}
		}
	}
	after, err := metricsOf(srv)
	if err != nil {
		return nil, err
	}
	m["server.ingest_us"] = tr.medianSelf("server.ingest", time.Microsecond)
	m["server.checkpoint_ms"] = tr.medianSelf("server.checkpoint", time.Millisecond)
	m["wal.bytes_per_user_byte"] = (after["stark_wal_bytes_total"] - before["stark_wal_bytes_total"]) / float64(max(userB, 1))
	m["wal.fsyncs_per_batch"] = (after["stark_wal_fsyncs_total"] - before["stark_wal_fsyncs_total"]) / float64(len(batches))

	// Reopen a copy of the dir as a crash would leave it.
	crash := dir + "-reopen"
	if err := copyDir(dir, crash); err != nil {
		return nil, err
	}
	defer os.RemoveAll(crash)
	srv2 := quietServer()
	info, err := srv2.EnableDurability(crash, 0)
	if err != nil {
		return nil, fmt.Errorf("reopen: %w", err)
	}
	m["wal.replayed_batches"] = float64(info.Batches + info.SkippedBatches)
	r.attempted.Add(1)
	if di, ok := srv2.DatasetInfo(liveName); !ok || di.Events != int64(len(mdl.live)) {
		r.fail("replay reopen", fmt.Errorf("reopened %+v, model count %d", di, len(mdl.live)))
	}
	_ = srv2.CloseDurability() // the copy is removed on return
	if err := srv.CloseDurability(); err != nil {
		return nil, err
	}

	// The DSL side.
	ctx := stark.NewContext(0)
	keys := make([]stark.STObject, len(initial))
	recs := make([]stark.LiveRecord[wev], len(initial))
	for i, e := range initial {
		k, err := timedKey(e)
		if err != nil {
			return nil, err
		}
		keys[i] = k
		recs[i] = stark.LiveRecord[wev]{ID: e.ID, Key: k, Value: wev{ID: e.ID, Cat: e.Cat, Time: e.T}}
	}
	sp, err := stark.Grid(8).Build(keys)
	if err != nil {
		return nil, err
	}
	mds := stark.NewMutableDataset[wev](ctx, liveName, sp, 0)
	mds.SetAttrFields(wevSchema)
	if _, err := mds.Insert(recs...); err != nil {
		return nil, err
	}
	log, err := wal.Open(filepath.Join(dir, "dsl-wal"))
	if err != nil {
		return nil, err
	}
	defer log.Close()
	var applySpan int
	var applyReq int64
	var payload []byte
	mds.OnCommit(func(uint64, []stark.LiveOp[wev]) error {
		_, err := tr.timed("wal.append", applySpan, applyReq, func(int) error {
			return log.Append(wal.Record{Type: 3, Payload: payload})
		})
		return err
	})
	step := newModel(initial) // the model at the generation just applied
	probes := ctx.Metrics().Snapshot()
	for i, b := range batches {
		ops, err := liveOps(b)
		if err != nil {
			return nil, err
		}
		applyReq, payload = int64(i+1), b.body
		r.attempted.Add(1)
		if _, err := tr.timed("live.apply", -1, applyReq, func(id int) error {
			applySpan = id
			_, err := mds.Apply(ops)
			return err
		}); err != nil {
			r.fail("replay apply", err)
			continue
		}
		step.apply(b)
		var snap *stark.Dataset[wev]
		tr.timed("stark.snapshot", -1, applyReq, func(int) error { snap = mds.Snapshot(); return nil })
		col := snap.Columnar()
		if _, err := tr.timed("colstore.rebuild", -1, applyReq, func(int) error { return col.Run() }); err != nil {
			r.fail("replay rebuild", err)
			continue
		}
		q := sample[i%len(sample)]
		r.attempted.Add(1)
		ch, err := chainFor(col, q)
		var n int64
		if err == nil {
			n, err = ch.Count()
		}
		if want := r.chk.expect(step.count(q)); err == nil && n != want {
			err = fmt.Errorf("live snapshot count %d, model %d", n, want)
		}
		if err != nil {
			r.fail("replay live query", err)
		}
	}
	end := ctx.Metrics().Snapshot()
	m["live.apply_us"] = tr.medianSelf("live.apply", time.Microsecond)
	m["wal.append_us"] = tr.medianSelf("wal.append", time.Microsecond)
	m["stark.snapshot_us"] = tr.medianSelf("stark.snapshot", time.Microsecond)
	m["colstore.rebuild_ms"] = tr.medianSelf("colstore.rebuild", time.Millisecond)
	m["engine.index_probes_per_query"] = float64(end.IndexProbes-probes.IndexProbes) / float64(len(batches))
	r.attempted.Add(1)
	if mds.Count() != int64(len(mdl.live)) {
		r.fail("replay model", fmt.Errorf("mutable dataset holds %d, model %d", mds.Count(), len(mdl.live)))
	}
	return res, nil
}

// liveOps converts a batch to DSL mutations.
func liveOps(b *batch) ([]stark.LiveOp[wev], error) {
	ops := make([]stark.LiveOp[wev], len(b.muts))
	for i, mu := range b.muts {
		if mu.op == "delete" {
			ops[i] = stark.LiveDelete[wev](mu.ev.ID)
			continue
		}
		k, err := timedKey(mu.ev)
		if err != nil {
			return nil, err
		}
		v := wev{ID: mu.ev.ID, Cat: mu.ev.Cat, Time: mu.ev.T}
		if mu.op == "insert" {
			ops[i] = stark.LiveInsert(mu.ev.ID, k, v)
		} else {
			ops[i] = stark.LiveUpsert(mu.ev.ID, k, v)
		}
	}
	return ops, nil
}

// replayJoins runs alternation cycles with each layer forced on its
// own: partitioning, an index build on the partitioned input, and the
// join (with its own tree builds) on inputs already partitioned.
func (r *runner) replayJoins(tr *tracer, ji joinInputs) (*replayResult, error) {
	res := &replayResult{metrics: map[string]float64{}}
	env, _, err := ji.load()
	if err != nil {
		return nil, err
	}
	type perCycle struct{ part, index, join time.Duration }
	var cycles []perCycle
	var refined, pairs, shuffled, trees int64
	for c := 0; c < 3; c++ {
		var pc perCycle
		for job := 0; job < 2; job++ {
			req := int64(c*2 + job + 1)
			var left, right *stark.Dataset[int64]
			var opts stark.JoinOptions
			var want int64
			d, err := tr.timed("partition.build", -1, req, func(int) error {
				if job == 0 {
					left = env.points.PartitionBy(stark.BSP(env.n/32 + 1))
					right = left
					opts = stark.JoinOptions{Predicate: stark.WithinDistancePredicate(env.eps, nil), IndexOrder: -1, ProbeExpansion: env.eps}
					want = ji.wantSelf
					return left.Run()
				}
				left = env.regions.PartitionBy(stark.Grid(8))
				right = env.points.PartitionBy(stark.Grid(8))
				opts = stark.JoinOptions{Predicate: stark.Contains, IndexOrder: -1}
				want = ji.wantInside
				if err := left.Run(); err != nil {
					return err
				}
				return right.Run()
			})
			if err != nil {
				return nil, err
			}
			pc.part += d
			// A live index is built inside every query, so Run() would
			// force nothing; the persistent mode bulk-loads its trees.
			d, err = tr.timed("index.build", -1, req, func(int) error { return right.Index(stark.Persistent(0)).Run() })
			if err != nil {
				return nil, err
			}
			pc.index += d
			var rep stark.JoinReport
			opts.Report = &rep
			before := env.ctx.Metrics().Snapshot()
			var n int64
			r.attempted.Add(1)
			d, err = tr.timed("core.join", -1, req, func(int) error {
				n, err = stark.Join(left, right, opts).Count()
				return err
			})
			if err == nil && n != want {
				err = fmt.Errorf("%d pairs, oracle %d", n, want)
			}
			if err != nil {
				r.fail("replay join", err)
				continue
			}
			pc.join += d
			after := env.ctx.Metrics().Snapshot()
			refined += after.CandidatesRefined - before.CandidatesRefined
			pairs += n
			if c == 0 {
				shuffled += rep.Shuffled
				trees += rep.TreesBuilt
				fmt.Fprintf(os.Stdout, "join job %d: strategy %s, %d pairs, %d trees built, %d shuffled\n",
					job, rep.Strategy, n, rep.TreesBuilt, rep.Shuffled)
			}
		}
		cycles = append(cycles, pc)
	}
	var part, index, join []float64
	for _, pc := range cycles {
		part = append(part, ms(pc.part)/2)
		index = append(index, ms(pc.index)/2)
		join = append(join, us(pc.join)/2)
	}
	m := res.metrics
	m["partition.build_ms"] = median(part)
	m["index.build_ms"] = median(index)
	m["core.join_us"] = median(join)
	m["core.join_refined_per_pair"] = float64(refined) / float64(max(pairs, 1))
	m["core.join_shuffled"] = float64(shuffled)
	m["core.join_trees_built"] = float64(trees)
	return res, nil
}

// traced runs the three replays and merges their metrics; on a
// conflicting name the replay of the workload's own traffic wins.
func (r *runner) traced(o *outcome) (map[string]float64, error) {
	tr := newTracer()
	q, err := r.replayQueries(tr, o.replay)
	if err != nil {
		return nil, fmt.Errorf("query replay: %w", err)
	}
	initial, s, _ := r.liveInputs()
	ing, err := r.replayIngest(tr, initial, s.with(stream(r.cfg.seed, sTraceBatches)), o.replay.querySample)
	if err != nil {
		return nil, fmt.Errorf("ingest replay: %w", err)
	}
	j, err := r.replayJoins(tr, o.replay.join)
	if err != nil {
		return nil, fmt.Errorf("join replay: %w", err)
	}
	order := []*replayResult{q, ing, j}
	if r.cfg.workload == "ingest-live" {
		order = []*replayResult{ing, q, j}
	}
	out := map[string]float64{}
	for i := len(order) - 1; i >= 0; i-- {
		for k, v := range order[i].metrics {
			out[k] = v
		}
	}
	out["trace.overhead_us"] = q.overheadUS
	out["trace.unaccounted_ratio"] = q.unaccounted

	fmt.Fprintf(os.Stdout, "\ntraced replay of %s (seed %d): layer self times\n", r.cfg.workload, r.cfg.seed)
	tr.table(os.Stdout)
	fmt.Fprintf(os.Stdout, "tracing overhead: %.1f us per DSL replay (traced minus untraced median)\n", q.overheadUS)
	fmt.Fprintf(os.Stdout, "unaccounted share of client time (no layer span covers it): %.3f\n", q.unaccounted)
	path := filepath.Join(r.cfg.out, fmt.Sprintf("trace-%s-seed%d.jsonl", r.cfg.workload, r.cfg.seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stdout, "spans written to %s\n", path)
	return out, nil
}
