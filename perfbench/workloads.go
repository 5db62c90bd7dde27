package main

// The two workloads. Each run times its own traffic for --seconds and
// reports every end-to-end metric: the operation classes a workload
// does not exercise itself (durable ingest and recovery on query-cold;
// join jobs on both) are measured by a fixed-size reference burst of
// that class after the timed phase, unloaded and closed loop, so every
// workload row carries every figure and a regression in any class
// shows on every workload.

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"

	"stark/internal/server"
)

// sizes fixes every input size of a run.
type sizes struct {
	queryEvents   int     // query-cold dataset rows
	warmQueries   int     // warm-up queries forcing the lazy sidecar builds
	poolPerSecond int     // query-cold: distinct queries generated per timed second
	liveEvents    int     // mutable dataset rows at registration
	batchOps      int     // mutations per ingest batch
	checkpointK   int     // checkpoint every K batches
	crashAt       int     // the writer copies the data dir, as a crash would leave it, after this many batches
	verifyQueries int     // verification set after ingest and after recovery
	joinPoints    int     // join burst points
	joinRegions   int     // join burst regions
	joinEps       float64 // self-join distance
	refBatches    int     // reference ingest burst: batches
	refCycles     int     // join burst: alternation cycles, job_s is a low quantile of them
	setupReps     int     // constructions per run, setup_s is their median (three times as many on ingest-live, whose set-up is short)
	recoverReps   int     // recoveries per run, recover_s is a low quantile of them
	traceQueries  int     // traced replay: queries
	traceBatches  int     // traced replay: ingest batches
}

func defaultSizes() sizes {
	return sizes{
		queryEvents: 200_000, warmQueries: 8, poolPerSecond: 400,
		liveEvents: 10_000, batchOps: 16, checkpointK: 100, crashAt: 2050, verifyQueries: 16,
		joinPoints: 50_000, joinRegions: 2000, joinEps: 0.5,
		refBatches: 4000, refCycles: 24,
		setupReps: 5, recoverReps: 51,
		traceQueries: 64, traceBatches: 250,
	}
}

// tinySizes keeps every phase but shrinks it to a fraction of a
// second, for the benchmark's own tests.
func tinySizes() sizes {
	return sizes{
		queryEvents: 3000, warmQueries: 2, poolPerSecond: 5000,
		liveEvents: 500, batchOps: 8, checkpointK: 10, crashAt: 25, verifyQueries: 4,
		joinPoints: 2000, joinRegions: 100, joinEps: 2,
		refBatches: 30, refCycles: 2,
		setupReps: 2, recoverReps: 2,
		traceQueries: 6, traceBatches: 25,
	}
}

// stream returns the seeded random stream k of a run, so every input
// is a function of --seed alone.
func stream(seed, k int64) *rand.Rand { return rand.New(rand.NewSource(seed*1_000_003 + k)) }

// Random stream numbers.
const (
	sQueryEvents = iota + 1
	sWarm
	sPool
	sLiveEvents
	sBatches
	sReader
	sVerify
	sJoinPoints
	sJoinRegions
	sTrace
	sTraceBatches
)

// outcome is what the measured run produced: the end-to-end metrics,
// the per-layer counters read around it, and the inputs the traced
// replay samples from.
type outcome struct {
	e2e    map[string]float64
	layer  map[string]float64
	replay replayInputs
}

// replayInputs are the data the traced replay re-runs.
type replayInputs struct {
	queryEvents []event
	querySample []*query
	join        joinInputs
}

type joinInputs struct {
	pts        []event
	regs       []rect
	eps        float64
	wantSelf   int64
	wantInside int64
}

// queryClients is the number of closed-loop query clients. A second
// client left the median latency about where it was and kept both
// CPUs busy; one leaves a CPU for the server's parallel tasks and the
// garbage collector, so fewer figures depend on how busy a shared host
// is.
const queryClients = 1

// repeatedCost is the cost of an operation repeated unchanged: the
// 10th percentile of its times. Interference from a shared host only
// adds time, and it comes and goes within seconds, so a low quantile
// of many repetitions reads the operation's own cost. Over 41
// back-to-back recoveries of one crash point, three runs gave medians
// of 94, 114 and 108 ms and minimums of 76, 78 and 75 ms.
func repeatedCost(times []float64) float64 { return quantile(times, 0.1) }

// settle collects garbage left by set-up or an earlier phase, so each
// measurement starts from the same heap state.
func settle() { runtime.GC() }

// memDelta brackets a timed phase with runtime.MemStats.
type memDelta struct{ before runtime.MemStats }

func startMem() *memDelta {
	m := &memDelta{}
	runtime.ReadMemStats(&m.before)
	return m
}

// finish records allocation per op, GC pause time and the live heap
// after a forced GC at the end of the timed phase.
func (m *memDelta) finish(o *outcome, ops int64) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	o.layer["runtime.alloc_bytes_per_op"] = float64(after.TotalAlloc-m.before.TotalAlloc) / float64(max(ops, 1))
	o.layer["runtime.gc_pause_ms"] = float64(after.PauseTotalNs-m.before.PauseTotalNs) / 1e6
	runtime.GC()
	runtime.ReadMemStats(&after)
	o.e2e["heap_live_mb"] = float64(after.HeapAlloc) / (1 << 20)
}

// ---- queries ----

// queryPhase runs the timed query phase with /metrics, cache counters
// and memory statistics read around it, and records the query metrics
// into o.
func (r *runner) queryPhase(o *outcome, env *queryEnv, stop *stopRule, next pick) error {
	settle()
	before, err := scrape(env.client, env.ts.URL)
	if err != nil {
		return err
	}
	cacheBefore := env.srv.CacheStats()
	rejBefore := r.rejected.Load()
	md := startMem()
	st := r.runQueries(env, queryClients, stop, next)
	md.finish(o, int64(len(st.lat)))
	after, err := scrape(env.client, env.ts.URL)
	if err != nil {
		return err
	}
	r.recordQueries(o, st, before, after)
	r.reconcile(o, st, before, after, cacheBefore, env.srv.CacheStats(), r.rejected.Load()-rejBefore)
	return nil
}

// reconcile compares the server's own counters with what the client
// saw over a query phase: cache hits + misses against queries issued,
// admission rejections against the 429/503 responses. A mismatch is
// reported as server.counter_drift and printed, never gated.
func (r *runner) reconcile(o *outcome, st *queryStats, before, after map[string]float64, cacheBefore, cacheAfter server.CacheStats, rejected int64) {
	hits, misses := cacheAfter.Hits-cacheBefore.Hits, cacheAfter.Misses-cacheBefore.Misses
	o.layer["server.cache_hit_ratio"] = float64(hits) / float64(max(hits+misses, 1))
	o.layer["server.cache_bytes"] = float64(cacheAfter.Bytes)
	admRejected := after["stark_admission_rejected_full_total"] + after["stark_admission_timed_out_total"] -
		before["stark_admission_rejected_full_total"] - before["stark_admission_timed_out_total"]
	drift := abs(float64(hits+misses-st.issued)) + abs(admRejected-float64(rejected))
	o.layer["server.counter_drift"] = drift
	if drift != 0 {
		fmt.Fprintf(os.Stderr, "perfbench: counter drift: cache hits %d + misses %d vs %d queries issued; admission rejected %.0f vs %d observed\n",
			hits, misses, st.issued, admRejected, rejected)
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

const queryRoute = `stark_http_request_duration_seconds_bucket{route="/api/v1/query"`

func (r *runner) recordQueries(o *outcome, st *queryStats, before, after map[string]float64) {
	o.e2e["query_p50_ms"] = quantile(st.lat, 0.5)
	o.e2e["query_p99_ms"] = p99(st.lat)
	o.e2e["query_qps"] = st.qps()
	o.layer["server.observed_p50_ms"] = histQuantile(before, after, queryRoute, 0.5) * 1000
	if n := len(st.lat); n < 1000 {
		fmt.Fprintf(os.Stderr, "perfbench: note: %d query samples leave fewer than 10 beyond p99\n", n)
	}
}

func (r *runner) queryWorkload() (*outcome, error) {
	cfg, sz := r.cfg, r.cfg.sizes
	o := &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
	events := newSkew(stream(cfg.seed, sQueryEvents)).events(sz.queryEvents, 0)
	g := newGrid(events)
	const name = "events"
	regBody := datasetBody(name, events, false)
	warm := draw(newQueryGen(stream(cfg.seed, sWarm), g, name), sz.warmQueries)
	pool := draw(newQueryGen(stream(cfg.seed, sPool), g, name), int(float64(sz.poolPerSecond)*cfg.seconds)+100)

	env, err := r.setupQueries(o, regBody, warm)
	if err != nil {
		return nil, err
	}
	next, used := sequential(pool)
	err = r.queryPhase(o, env, forSeconds(cfg.seconds), next)
	env.close()
	if err != nil {
		return nil, err
	}
	if used() >= len(pool) {
		fmt.Fprintf(os.Stderr, "perfbench: note: the %d-query pool ran out before the deadline\n", len(pool))
	}

	o.replay = replayInputs{queryEvents: events, querySample: draw(newQueryGen(stream(cfg.seed, sTrace), g, name), sz.traceQueries)}
	// The query server and its full result cache are garbage now; hand
	// their pages back to the OS at once, so the runtime is not still
	// returning them in the background while the bursts are timed.
	debug.FreeOSMemory()
	if err := r.refIngest(o); err != nil {
		return nil, err
	}
	if err := r.refJobs(o); err != nil {
		return nil, err
	}
	return o, nil
}

// sequential hands out each pool entry once, in order, across all
// clients; used reports how many were handed out.
func sequential(pool []*query) (pick, func() int) {
	var next atomic.Int64
	return func(int) *query {
			i := int(next.Add(1) - 1)
			if i >= len(pool) {
				return nil
			}
			return pool[i]
		}, func() int {
			return min(int(next.Load()), len(pool))
		}
}

func draw(qg *queryGen, n int) []*query {
	out := make([]*query, n)
	for i := range out {
		out[i] = qg.next()
	}
	return out
}

// setupQueries builds the query server setupReps times and keeps the
// last; setup_s is the median construction time.
func (r *runner) setupQueries(o *outcome, regBody []byte, warm []*query) (*queryEnv, error) {
	var times []float64
	var env *queryEnv
	for i := 0; i < r.cfg.sizes.setupReps; i++ {
		if env != nil {
			env.close()
			env = nil
			settle()
		}
		e, d, err := newQueryEnv(r, regBody, warm)
		if err != nil {
			return nil, err
		}
		env = e
		times = append(times, d.Seconds())
	}
	o.e2e["setup_s"] = median(times)
	return env, nil
}

// ---- ingest ----

func (r *runner) liveInputs() ([]event, *skew, []byte) {
	s := newSkew(stream(r.cfg.seed, sLiveEvents))
	initial := s.events(r.cfg.sizes.liveEvents, 0)
	return initial, s.with(stream(r.cfg.seed, sBatches)), datasetBody(liveName, initial, true)
}

// setupIngest builds the durable server 3×setupReps times (each in a
// fresh data dir) and keeps the last; the reported time runs from
// server construction through registration and the first read, which
// forces the snapshot's columnar and stats builds.
func (r *runner) setupIngest(initial []event, s *skew, regBody []byte, firstRead *query) (*ingestEnv, []float64, error) {
	var times []float64
	var env *ingestEnv
	for i := 0; i < 3*r.cfg.sizes.setupReps; i++ {
		if env != nil {
			env.discard()
			env = nil
			settle()
		}
		start := time.Now()
		e, _, err := newIngestEnv(r.cfg, initial, regBody, s)
		if err != nil {
			return nil, nil, err
		}
		env = e
		var buf bytes.Buffer
		r.query(&queryEnv{srv: env.srv, ts: env.ts, client: env.client}, firstRead, &buf)
		times = append(times, time.Since(start).Seconds())
	}
	return env, times, nil
}

// fillCache brings the result cache to its 64 MiB budget before
// timing, as on a server that has run for a while: wide queries over
// the registered generation answer about 1.4 MB apiece. Filled only by
// the reader's small answers, the cache grew through the whole run,
// the live heap and with it the garbage collector's pacing grew with
// it, and ingest throughput rose by half over a 150-s run.
func (r *runner) fillCache(env *ingestEnv) {
	qenv := &queryEnv{srv: env.srv, ts: env.ts, client: env.client}
	var buf bytes.Buffer
	for i := 0; i < 48; i++ {
		q := &query{kind: kindWindow, x2: space, y2: space, tb: int64(i) * timeRange / 1000, te: timeRange}
		q.encode(liveName)
		q.want = env.model.count(q)
		r.query(qenv, q, &buf)
	}
	fmt.Printf("result cache filled with %d bytes before timing (budget 64 MiB)\n", env.srv.CacheStats().Bytes)
}

// ingestPhase runs the writer and reader and the close, measure and
// recover sequence, recording the ingest metrics into o. Only the
// primary phase of a workload records the reader's query metrics and
// the memory figures.
func (r *runner) ingestPhase(o *outcome, env *ingestEnv, stop *stopRule, reader *queryGen, primary bool) (*ingestStats, error) {
	r.fillCache(env)
	settle()
	before, err := scrape(env.client, env.ts.URL)
	if err != nil {
		return nil, err
	}
	var md *memDelta
	if primary {
		md = startMem()
	}
	cacheBefore := env.srv.CacheStats()
	rejBefore := r.rejected.Load()
	st := r.runIngest(env, stop, reader)
	if md != nil {
		md.finish(o, st.batches+int64(len(st.reads.lat)))
	}
	after, err := scrape(env.client, env.ts.URL)
	if err != nil {
		return nil, err
	}
	if env.crash == nil { // the phase ended before batch crashAt
		if err := env.snapshotCrash(); err != nil {
			return nil, err
		}
	}
	o.e2e["disk_bytes_per_user_byte"] = float64(env.crash.disk) / float64(env.crash.userB)
	o.e2e["ingest_rows_per_s"] = float64(st.rows) / st.elapsed.Seconds()
	o.layer["ingest_p50_ms"] = quantile(st.lat, 0.5)
	o.layer["ingest_p99_ms"] = p99(st.lat)
	fsyncs := after["stark_wal_fsync_duration_seconds_count"] - before["stark_wal_fsync_duration_seconds_count"]
	o.layer["wal.fsync_us"] = (after["stark_wal_fsync_duration_seconds_sum"] - before["stark_wal_fsync_duration_seconds_sum"]) / max(fsyncs, 1) * 1e6
	if primary {
		r.recordQueries(o, st.reads, before, after)
		r.reconcile(o, st.reads, before, after, cacheBefore, env.srv.CacheStats(), r.rejected.Load()-rejBefore)
	}

	verify := draw(newQueryGen(stream(r.cfg.seed, sVerify), newGrid(env.initial), liveName), r.cfg.sizes.verifyQueries)
	all := &query{kind: kindWindow, x1: 0, y1: 0, x2: space, y2: space, tb: 0, te: timeRange}
	all.encode(liveName)
	verify = append(verify, all)
	r.verifyLive(env.srv, env.model, verify)
	rec, err := r.closeAndRecover(env, verify)
	if err != nil {
		return nil, err
	}
	o.e2e["recover_s"] = repeatedCost(rec)
	return st, nil
}

func (r *runner) ingestWorkload() (*outcome, error) {
	cfg, sz := r.cfg, r.cfg.sizes
	o := &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
	initial, s, regBody := r.liveInputs()
	g := newGrid(initial)
	first := newQueryGen(stream(cfg.seed, sWarm), g, liveName).nextLive()
	env, times, err := r.setupIngest(initial, s, regBody, first)
	if err != nil {
		return nil, err
	}
	o.e2e["setup_s"] = median(times)
	reader := newQueryGen(stream(cfg.seed, sReader), g, liveName)
	if _, err := r.ingestPhase(o, env, forSeconds(cfg.seconds), reader, true); err != nil {
		return nil, err
	}
	o.replay = replayInputs{
		queryEvents: initial,
		querySample: draw(newQueryGen(stream(cfg.seed, sTrace), g, "events"), sz.traceQueries),
	}
	if err := r.refJobs(o); err != nil {
		return nil, err
	}
	return o, nil
}

// refIngest is the reference ingest burst: ingest-live's traffic, a
// writer beside a reader, for a fixed number of batches, then close
// and recovery. Without the reader the writer's throughput is bound by
// fsync latency alone, which on a shared machine moved by a third from
// run to run.
func (r *runner) refIngest(o *outcome) error {
	initial, s, regBody := r.liveInputs()
	env, _, err := newIngestEnv(r.cfg, initial, regBody, s)
	if err != nil {
		return err
	}
	reader := newQueryGen(stream(r.cfg.seed, sReader), newGrid(initial), liveName)
	_, err = r.ingestPhase(o, env, forCount(r.cfg.sizes.refBatches), reader, false)
	return err
}

// ---- joins ----

func (r *runner) joinInputs() joinInputs {
	sz := r.cfg.sizes
	pts := newSkew(stream(r.cfg.seed, sJoinPoints)).events(sz.joinPoints, 0)
	regs := genRegions(stream(r.cfg.seed, sJoinRegions), sz.joinRegions)
	return joinInputs{pts: pts, regs: regs, eps: sz.joinEps,
		wantSelf: selfJoinPairs(pts, sz.joinEps), wantInside: containsPairs(regs, newGrid(pts))}
}

func (ji joinInputs) load() (*joinEnv, time.Duration, error) {
	env, d, err := loadJoin(ji.pts, ji.regs, ji.eps)
	if err != nil {
		return nil, 0, err
	}
	env.wantSelf, env.wantInside = ji.wantSelf, ji.wantInside
	return env, d, nil
}

// refJobs is the reference join burst: the join jobs one at a time,
// alternating the Figure 4 withinDistance self-join and the regions ×
// points contains join, for a fixed number of cycles.
func (r *runner) refJobs(o *outcome) error {
	ji := r.joinInputs()
	env, _, err := ji.load()
	if err != nil {
		return err
	}
	settle()
	o.e2e["job_s"] = repeatedCost(r.runJobs(env, forCount(r.cfg.sizes.refCycles)))
	o.replay.join = ji
	return nil
}
