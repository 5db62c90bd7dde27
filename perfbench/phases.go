package main

// The measured phases. Each phase drives one operation class closed
// loop — every caller waits for its reply before sending the next
// request — against the real server over loopback HTTP or, for join
// jobs, through the public stark DSL, and checks every answer.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"stark"
	"stark/internal/server"
)

// runner carries what every phase of one run shares: settings, the
// op counters behind attempted/failed, and the response checker.
type runner struct {
	cfg       config
	attempted atomic.Int64
	failed    atomic.Int64
	rejected  atomic.Int64 // 429 + 503 responses
	chk       checker
	logMu     sync.Mutex
	logged    int
}

// fail counts one failed operation and logs the first few causes.
func (r *runner) fail(what string, err error) {
	r.failed.Add(1)
	r.logMu.Lock()
	defer r.logMu.Unlock()
	if r.logged < 10 {
		fmt.Fprintf(os.Stderr, "perfbench: failed %s: %v\n", what, err)
	}
	r.logged++
}

// status counts a non-2xx status as a failure (and 429/503 as
// rejected) and reports whether the response is usable.
func (r *runner) status(what string, code int, body []byte) bool {
	if code == http.StatusOK {
		return true
	}
	if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
		r.rejected.Add(1)
	}
	r.fail(what, fmt.Errorf("status %d: %s", code, bytes.TrimSpace(body)))
	return false
}

// stopRule ends a phase after a fixed number of operations (count > 0)
// or at a deadline.
type stopRule struct {
	deadline time.Time
	count    int64
	taken    atomic.Int64
}

func forSeconds(s float64) *stopRule {
	return &stopRule{deadline: time.Now().Add(time.Duration(s * float64(time.Second)))}
}
func forCount(n int) *stopRule { return &stopRule{count: int64(n)} }

// next reports whether one more operation may start.
func (s *stopRule) next() bool {
	if s.count > 0 {
		return s.taken.Add(1) <= s.count
	}
	return time.Now().Before(s.deadline)
}

func quietServer() *server.Server {
	ctx := stark.NewContext(0) // the engine's default parallelism
	return server.NewService(ctx, server.Options{
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
}

// ---- registration ----

type wireEvent struct {
	ID       int64  `json:"id"`
	Category string `json:"category"`
	Time     int64  `json:"time"`
	WKT      string `json:"wkt"`
}

type wireSpec struct {
	Name        string      `json:"name"`
	Partitioner string      `json:"partitioner"`
	Columnar    bool        `json:"columnar"`
	Mutable     bool        `json:"mutable,omitempty"`
	Events      []wireEvent `json:"events"`
}

// datasetBody is the POST /api/datasets body registering events with
// the layout every workload uses: an 8×8 grid and the columnar sidecar.
func datasetBody(name string, events []event, mutable bool) []byte {
	spec := wireSpec{Name: name, Partitioner: "grid:8", Columnar: true, Mutable: mutable,
		Events: make([]wireEvent, len(events))}
	for i, e := range events {
		spec.Events[i] = wireEvent{ID: e.ID, Category: e.Cat, Time: e.T, WKT: e.wkt()}
	}
	b, err := json.Marshal(spec)
	if err != nil {
		panic(err) // only plain values are marshalled
	}
	return b
}

// ---- query service ----

// queryEnv is one server on loopback holding one immutable dataset.
type queryEnv struct {
	srv    *server.Server
	ts     *httptest.Server
	client *http.Client
}

func (e *queryEnv) close() { e.ts.Close() }

// newQueryEnv builds a server, registers the events over HTTP and runs
// the warm-up queries that force the lazy sidecar builds (stats,
// attribute postings). It returns the time all of that took.
func newQueryEnv(r *runner, regBody []byte, warm []*query) (*queryEnv, time.Duration, error) {
	start := time.Now()
	srv := quietServer()
	env := &queryEnv{srv: srv, ts: httptest.NewServer(srv), client: newHTTPClient(2)}
	var buf bytes.Buffer
	code, _, err := post(env.client, env.ts.URL+"/api/datasets", "application/json", regBody, &buf)
	if err != nil || code != http.StatusOK {
		env.close()
		return nil, 0, fmt.Errorf("register: status %d err %v: %s", code, err, buf.Bytes())
	}
	for _, q := range warm {
		r.query(env, q, &buf)
	}
	return env, time.Since(start), nil
}

// query sends one query and checks it against q.want; it returns the
// client latency, the summary and whether the answer was right.
func (r *runner) query(env *queryEnv, q *query, buf *bytes.Buffer) (time.Duration, summary, bool) {
	r.attempted.Add(1)
	code, d, err := post(env.client, env.ts.URL+"/api/v1/query", "application/json", q.body, buf)
	if err != nil {
		r.fail("query", err)
		return d, summary{}, false
	}
	if !r.status("query", code, buf.Bytes()) {
		return d, summary{}, false
	}
	if q.want < 0 { // live data: rows must satisfy the predicate
		rows, n, sum, err := splitNDJSON(buf.Bytes())
		if err == nil && sum.Count != n {
			err = fmt.Errorf("summary count %d, rows %d", sum.Count, n)
		}
		if err == nil {
			err = checkRows(rows, q)
		}
		if err != nil {
			r.fail("query", err)
			return d, sum, false
		}
		return d, sum, true
	}
	sum, _, err := r.chk.checkQuery(buf.Bytes(), q.want)
	if err != nil {
		r.fail("query", err)
		return d, sum, false
	}
	return d, sum, true
}

// queryStats is what a query phase measured.
type queryStats struct {
	lat     []float64 // ms, verified queries only
	elapsed time.Duration
	issued  int64
}

func (s *queryStats) qps() float64 { return float64(len(s.lat)) / s.elapsed.Seconds() }

// pick returns the next query of one client, or nil when it is done.
type pick func(client int) *query

// runQueries drives clients closed loop until stop says so.
func (r *runner) runQueries(env *queryEnv, clients int, stop *stopRule, next pick) *queryStats {
	st := &queryStats{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var buf bytes.Buffer
			var lat []float64
			var issued int64
			for stop.next() {
				q := next(c)
				if q == nil {
					break
				}
				issued++
				d, _, ok := r.query(env, q, &buf)
				if ok {
					lat = append(lat, ms(d))
				}
			}
			mu.Lock()
			st.lat = append(st.lat, lat...)
			st.issued += issued
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	st.elapsed = time.Since(start)
	return st
}

// ---- durable ingest ----

// ingestEnv is a durable server on loopback holding one mutable
// dataset, plus the benchmark-side model of its contents.
type ingestEnv struct {
	srv     *server.Server
	ts      *httptest.Server
	client  *http.Client
	dir     string
	model   *model
	skew    *skew
	gen     uint64        // last acknowledged generation
	acked   atomic.Uint64 // gen, published to the reader
	userB   int64         // acknowledged request bytes
	initial []event
	crash   *crashPoint // taken at batch crashAt of the writer
}

// crashPoint is the data dir as a crash would leave it at one point of
// the batch stream, with what the model held there. Taken at a fixed
// batch, it does not depend on how many batches the timed phase got
// through.
type crashPoint struct {
	dir   string
	model *model
	gen   uint64
	userB int64 // acknowledged request bytes so far
	disk  int64 // bytes in the copied data dir
}

// snapshotCrash copies the data dir as a crash would leave it (every
// acknowledged batch is fsynced, and the caller is the writer, the
// only mutator) and records the disk usage and the model at this
// point of the batch stream.
func (e *ingestEnv) snapshotCrash() error {
	dir := e.dir + "-crash"
	if err := copyDir(e.dir, dir); err != nil {
		return err
	}
	disk, err := dirBytes(dir)
	if err != nil {
		return err
	}
	e.crash = &crashPoint{dir: dir, model: e.model.clone(), gen: e.gen, userB: e.userB, disk: disk}
	return nil
}

const liveName = "live"

// newIngestEnv builds a durable server in a fresh data dir and
// registers the initial events as a mutable dataset over HTTP.
func newIngestEnv(cfg config, initial []event, regBody []byte, s *skew) (*ingestEnv, time.Duration, error) {
	dir, err := os.MkdirTemp(cfg.out, "data-")
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	srv := quietServer()
	if _, err := srv.EnableDurability(dir, 0); err != nil {
		return nil, 0, fmt.Errorf("enable durability: %w", err)
	}
	env := &ingestEnv{srv: srv, ts: httptest.NewServer(srv), client: newHTTPClient(2), dir: dir,
		model: newModel(initial), skew: s, initial: initial}
	var buf bytes.Buffer
	code, _, err := post(env.client, env.ts.URL+"/api/datasets", "application/json", regBody, &buf)
	if err != nil || code != http.StatusOK {
		env.discard()
		return nil, 0, fmt.Errorf("register: status %d err %v: %s", code, err, buf.Bytes())
	}
	var info struct {
		LiveGeneration uint64 `json:"liveGeneration"`
	}
	if err := json.Unmarshal(buf.Bytes(), &info); err != nil {
		env.discard()
		return nil, 0, fmt.Errorf("register reply: %w", err)
	}
	env.gen = info.LiveGeneration
	env.userB = int64(len(regBody))
	return env, time.Since(start), nil
}

// discard stops the server without the final checkpoint and removes
// the data dir.
func (e *ingestEnv) discard() {
	e.ts.Close()
	_ = e.srv.CloseDurability() // the dir is removed next; its state no longer matters
	os.RemoveAll(e.dir)
}

// ingestStats is what an ingest phase measured.
type ingestStats struct {
	lat     []float64 // ms per acknowledged batch
	rows    int64
	batches int64
	elapsed time.Duration
	reads   *queryStats
}

type ackReply struct {
	Generation uint64 `json:"generation"`
	Inserted   int    `json:"inserted"`
	Replaced   int    `json:"replaced"`
	Deleted    int    `json:"deleted"`
	Count      int64  `json:"count"`
}

// ingest sends one batch and checks the acknowledgement against the
// model: the next generation, the batch's effect and the live count.
func (r *runner) ingest(env *ingestEnv, b *batch, buf *bytes.Buffer) (time.Duration, bool) {
	r.attempted.Add(1)
	code, d, err := post(env.client, env.ts.URL+"/api/v1/ingest?dataset="+liveName, "application/x-ndjson", b.body, buf)
	if err != nil {
		r.fail("ingest", err)
		return d, false
	}
	if !r.status("ingest", code, buf.Bytes()) {
		return d, false
	}
	var ack ackReply
	if err := json.Unmarshal(buf.Bytes(), &ack); err != nil {
		r.fail("ingest", err)
		return d, false
	}
	env.model.apply(b)
	wantCount := r.chk.expect(int64(len(env.model.live)))
	if ack.Generation != env.gen+1 || ack.Inserted != b.inserts || ack.Replaced != b.upserts ||
		ack.Deleted != b.deletes || ack.Count != wantCount {
		r.fail("ingest", fmt.Errorf("ack %+v, model: gen %d, +%d ~%d -%d, count %d",
			ack, env.gen+1, b.inserts, b.upserts, b.deletes, wantCount))
	}
	env.gen = ack.Generation
	env.acked.Store(env.gen)
	env.userB += int64(len(b.body))
	return d, true
}

// runIngest drives one writer and one reader of the latest snapshot,
// both closed loop, until stop says so. The reader is a
// dashboard that refreshes when the data changes: it sends its next
// query once a batch newer than its last read has been acknowledged,
// so every read is of a new generation. The writer calls Checkpoint
// itself every checkpointK batches, so checkpoints fall at the same
// points in every run.
func (r *runner) runIngest(env *ingestEnv, stop *stopRule, reader *queryGen) *ingestStats {
	st := &ingestStats{}
	done := make(chan struct{})
	var readerWG sync.WaitGroup
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		qenv := &queryEnv{srv: env.srv, ts: env.ts, client: env.client}
		var seen uint64
		st.reads = r.runQueries(qenv, 1, &stopRule{deadline: farFuture}, func(int) *query {
			for env.acked.Load() <= seen {
				select {
				case <-done:
					return nil
				case <-time.After(100 * time.Microsecond):
				}
			}
			seen = env.acked.Load()
			return reader.nextLive()
		})
	}()
	var buf bytes.Buffer
	var paused time.Duration // the crash copy, left out of the phase's time
	start := time.Now()
	for stop.next() {
		b := env.model.nextBatch(env.skew, r.cfg.sizes.batchOps)
		d, ok := r.ingest(env, b, &buf)
		if !ok {
			continue
		}
		st.lat = append(st.lat, ms(d))
		st.rows += int64(len(b.muts))
		st.batches++
		if st.batches%int64(r.cfg.sizes.checkpointK) == 0 {
			if err := env.srv.Checkpoint(); err != nil {
				r.fail("checkpoint", err)
			}
		}
		if st.batches == int64(r.cfg.sizes.crashAt) {
			r.attempted.Add(1)
			t := time.Now()
			if err := env.snapshotCrash(); err != nil {
				r.fail("crash copy", err)
			}
			paused = time.Since(t)
		}
	}
	st.elapsed = time.Since(start) - paused
	close(done)
	readerWG.Wait()
	return st
}

var farFuture = time.Now().Add(24 * time.Hour)

// verifyLive runs the verification query set against a server's live
// dataset (through h, in memory) and compares each count with the
// model.
func (r *runner) verifyLive(h http.Handler, m *model, qs []*query) {
	for _, q := range qs {
		r.attempted.Add(1)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/query", bytes.NewReader(q.body)))
		if !r.status("verify", rec.Code, rec.Body.Bytes()) {
			continue
		}
		if _, _, err := r.chk.checkQuery(rec.Body.Bytes(), m.count(q)); err != nil {
			r.fail("verify", err)
		}
	}
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	return n, err
}

func copyDir(src, dst string) error {
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// closeAndRecover shuts the ingest server down gracefully and checks
// that a copy of its data dir recovers to the model's final state.
// Then it recovers copies of the crash point's dir recoverReps times,
// each on a fresh server and verified against the crash point's model,
// and returns those recovery times in seconds.
func (r *runner) closeAndRecover(env *ingestEnv, verify []*query) ([]float64, error) {
	env.ts.Close()
	defer os.RemoveAll(env.dir)
	defer os.RemoveAll(env.crash.dir)
	if err := env.srv.CloseDurability(); err != nil {
		return nil, fmt.Errorf("close durability: %w", err)
	}
	final := &crashPoint{dir: env.dir, model: env.model, gen: env.gen}
	if _, err := r.recoverCopy(final, verify, 0); err != nil {
		return nil, err
	}
	var times []float64
	for i := 1; i <= r.cfg.sizes.recoverReps; i++ {
		d, err := r.recoverCopy(env.crash, verify, i)
		if err != nil {
			return nil, err
		}
		times = append(times, d.Seconds())
	}
	return times, nil
}

// recoverCopy recovers copy i of cp's data dir on a fresh server,
// timing EnableDurability, and verifies the recovered dataset against
// cp's model.
func (r *runner) recoverCopy(cp *crashPoint, verify []*query, i int) (time.Duration, error) {
	dir := fmt.Sprintf("%s-recover%d", cp.dir, i)
	defer os.RemoveAll(dir)
	if err := copyDir(cp.dir, dir); err != nil {
		return 0, err
	}
	srv := quietServer()
	settle()
	start := time.Now()
	info, err := srv.EnableDurability(dir, 0)
	d := time.Since(start)
	if err != nil {
		return 0, fmt.Errorf("recover: %w", err)
	}
	r.attempted.Add(1)
	if di, ok := srv.DatasetInfo(liveName); !ok || di.Events != int64(len(cp.model.live)) || di.LiveGeneration != cp.gen {
		r.fail("recover", fmt.Errorf("recovered %+v (ok=%v), model count %d gen %d; recovery %+v",
			di, ok, len(cp.model.live), cp.gen, *info))
	}
	r.verifyLive(srv, cp.model, verify)
	_ = srv.CloseDurability() // the copy is removed on return
	return d, nil
}

// ---- join jobs ----

// joinEnv holds the loaded join inputs: the skewed points and the
// regions, parsed and cached once; every job re-partitions them.
type joinEnv struct {
	ctx        *stark.Context
	points     *stark.Dataset[int64]
	regions    *stark.Dataset[int64]
	n          int
	eps        float64
	wantSelf   int64
	wantInside int64
}

func loadJoin(pts []event, regs []rect, eps float64) (*joinEnv, time.Duration, error) {
	start := time.Now()
	ctx := stark.NewContext(0)
	pt := make([]stark.Tuple[int64], len(pts))
	for i, p := range pts {
		o, err := stark.FromWKT(p.wkt())
		if err != nil {
			return nil, 0, err
		}
		pt[i] = stark.NewTuple(o, p.ID)
	}
	rt := make([]stark.Tuple[int64], len(regs))
	for i, rg := range regs {
		o, err := stark.FromWKT(rg.wkt())
		if err != nil {
			return nil, 0, err
		}
		rt[i] = stark.NewTuple(o, int64(i))
	}
	env := &joinEnv{ctx: ctx, n: len(pts), eps: eps,
		points: stark.Parallelize(ctx, pt).Cache(), regions: stark.Parallelize(ctx, rt).Cache()}
	if err := env.points.Run(); err != nil {
		return nil, 0, err
	}
	if err := env.regions.Run(); err != nil {
		return nil, 0, err
	}
	return env, time.Since(start), nil
}

// selfJoin is the paper's Figure 4 job: a withinDistance self-join of
// skewed points over a BSP partitioning.
func (e *joinEnv) selfJoin(rep *stark.JoinReport) (int64, error) {
	ds := e.points.PartitionBy(stark.BSP(e.n/32 + 1))
	return stark.Join(ds, ds, stark.JoinOptions{
		Predicate: stark.WithinDistancePredicate(e.eps, nil), IndexOrder: -1,
		ProbeExpansion: e.eps, Report: rep,
	}).Count()
}

// containsJoin joins regions with the points they contain, both sides
// on an 8×8 grid.
func (e *joinEnv) containsJoin(rep *stark.JoinReport) (int64, error) {
	l := e.regions.PartitionBy(stark.Grid(8))
	r := e.points.PartitionBy(stark.Grid(8))
	return stark.Join(l, r, stark.JoinOptions{Predicate: stark.Contains, IndexOrder: -1, Report: rep}).Count()
}

// runJobs runs alternation cycles (self-join, then contains join) one
// job at a time and returns each cycle's mean job time in seconds.
func (r *runner) runJobs(env *joinEnv, stop *stopRule) []float64 {
	var cycles []float64
	for stop.next() {
		var sum time.Duration
		ok := true
		for _, job := range []struct {
			name string
			run  func(*stark.JoinReport) (int64, error)
			want int64
		}{{"self-join", env.selfJoin, env.wantSelf}, {"contains join", env.containsJoin, env.wantInside}} {
			r.attempted.Add(1)
			var rep stark.JoinReport
			start := time.Now()
			n, err := job.run(&rep)
			sum += time.Since(start)
			if err == nil {
				if want := r.chk.expect(job.want); n != want {
					err = fmt.Errorf("%d pairs, oracle %d", n, want)
				}
			}
			if err != nil {
				r.fail(job.name, err)
				ok = false
			}
		}
		if ok {
			cycles = append(cycles, sum.Seconds()/2)
		}
	}
	return cycles
}
