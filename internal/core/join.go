package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"stark/internal/geom"
	"stark/internal/index"
	"stark/internal/partition"
	"stark/internal/plan"
	"stark/internal/stobject"
)

// This file implements the spatio-temporal join. STARK's join takes
// two datasets of (STObject, V) records and a predicate; the result
// holds every pair of records whose keys satisfy it.
//
// Execution runs one of three physical strategies, chosen by the
// cost model in internal/plan from internal/stats statistics (the
// default, JoinAuto) or forced via JoinOptions.Strategy:
//
//   - broadcast: the smaller side is materialised once into a single
//     live R-tree and the other side's fused partition pipelines
//     stream against it — no partition-pair enumeration at all;
//   - copartition: the smaller side is replicated onto the other
//     side's SpatialPartitioner via extent overlap (the Replicating
//     assignment), so each task joins exactly one aligned pair;
//   - pairs: the paper's partitioned join — (left, right) partition
//     pairs are enumerated, pairs with disjoint extents are pruned
//     (the strategy Figure 4 measures), and the right partition of
//     each surviving pair is indexed with a live R-tree.
//
// In every strategy the probe side is never materialised: records
// stream off their fused partition pipeline straight into the probe
// loop. Setting IndexOrder to 0 disables the trees and falls back to
// nested loops (the behaviour of the SpatialSpark baseline).

// JoinStrategy selects the physical join execution strategy; see
// plan.JoinStrategy for the semantics of each value.
type JoinStrategy = plan.JoinStrategy

// Join strategy values, re-exported from the planner.
const (
	JoinAuto        = plan.JoinAuto
	JoinPairs       = plan.JoinPairs
	JoinBroadcast   = plan.JoinBroadcast
	JoinCoPartition = plan.JoinCoPartition
)

// JoinedPair is one join result row.
type JoinedPair[V, W any] struct {
	LeftKey  stobject.STObject
	LeftVal  V
	RightKey stobject.STObject
	RightVal W
}

// JoinOptions configures a spatial join.
type JoinOptions struct {
	// Predicate is the spatio-temporal join predicate; nil selects
	// Intersects.
	Predicate stobject.Predicate
	// IndexOrder is the order of the live R-trees built on the join's
	// build side; 0 disables indexing (nested loop), negative selects
	// the default order.
	IndexOrder int
	// ProbeExpansion expands the probe record's envelope before
	// probing — required for withinDistance joins, where matching
	// records can lie outside the probe envelope.
	ProbeExpansion float64
	// DisablePruning turns partition-pair pruning off even when both
	// sides are spatially partitioned (used by ablation benches). It
	// also pins JoinAuto to the pairs strategy, so the ablation
	// measures the enumeration it claims to.
	DisablePruning bool
	// Strategy forces a physical strategy; JoinAuto (the zero value)
	// lets the cost model choose from dataset statistics. Only auto
	// consults sizes: a forced strategy builds the RIGHT input as
	// given (force JoinBroadcast with the side to materialise on the
	// right), and a forced JoinCoPartition without any spatial
	// partitioner on either side falls back to JoinPairs.
	Strategy JoinStrategy
	// BroadcastBudget caps the rows the auto strategy may broadcast;
	// <= 0 selects plan.DefaultBroadcastRows.
	BroadcastBudget int64
	// Report, when non-nil, receives the execution report: the chosen
	// strategy, the cost-model decision, and actual task/pair/tree
	// counters — the numbers EXPLAIN renders.
	Report *JoinReport
}

// JoinReport describes how a join actually executed.
type JoinReport struct {
	// Strategy is the strategy that ran (never JoinAuto).
	Strategy JoinStrategy
	// Decision is the cost model's verdict; nil when the strategy was
	// forced and no planning ran.
	Decision *plan.JoinDecision
	// Swapped reports that the executor swapped the inputs internally
	// (and swapped every result row back).
	Swapped bool
	// Tasks is the number of scheduled join tasks; TotalPairs the
	// size of the naive L×R enumeration the strategy avoided or
	// pruned.
	Tasks      int
	TotalPairs int
	// PairsPruned counts partition pairs skipped by extent pruning
	// (pairs strategy only).
	PairsPruned int
	// TreesBuilt counts live R-tree builds; with the once-per-
	// partition slot cache this is at most one per distinct build
	// partition.
	TreesBuilt int64
	// Shuffled counts records replicated by the copartition shuffle.
	Shuffled int64
	// BuildRows is the number of rows materialised on the build side
	// (broadcast and copartition).
	BuildRows int64
}

// Summary renders the actual execution counters on one line — the
// "actual:" EXPLAIN annotation.
func (r *JoinReport) Summary() string {
	return fmt.Sprintf("strategy=%s tasks=%d of %d enumerable pairs, pairs_pruned=%d trees_built=%d shuffled=%d build_rows=%d",
		r.Strategy, r.Tasks, r.TotalPairs, r.PairsPruned, r.TreesBuilt, r.Shuffled, r.BuildRows)
}

// joinRun is the shared execution core of Join and JoinCount: it
// resolves the strategy (consulting the cost model on JoinAuto),
// normalises the orientation so the build side is on the right, and
// dispatches to the strategy executor. Every matching (left, right)
// record pair streams into the per-task sink produced by
// makeSink(numTasks). Sinks are indexed by task, and each task is
// owned by exactly one goroutine, so sinks need no locking as long
// as they only touch their task's slot.
func joinRun[V, W any](l *SpatialDataset[V], r *SpatialDataset[W], opts JoinOptions,
	makeSink func(numTasks int) func(t int, lkv Tuple[V], rkv Tuple[W])) error {
	pred := opts.Predicate
	if pred == nil {
		pred = stobject.Intersects
	}
	order := opts.IndexOrder
	if order < 0 {
		order = index.DefaultOrder
	}

	rep := opts.Report
	if rep == nil {
		rep = &JoinReport{}
	}
	*rep = JoinReport{TotalPairs: l.ds.NumPartitions() * r.ds.NumPartitions()}

	strategy := opts.Strategy
	buildRight := true
	if strategy == JoinAuto && opts.DisablePruning {
		strategy = JoinPairs
	}
	if strategy == JoinAuto {
		ls, err := l.Stats(0)
		if err != nil {
			return fmt.Errorf("core: join stats (left): %w", err)
		}
		rs, err := r.Stats(0)
		if err != nil {
			return fmt.Errorf("core: join stats (right): %w", err)
		}
		dec := plan.PlanJoinStrategy(plan.JoinPlanInput{
			Left:             ls,
			Right:            rs,
			Expand:           opts.ProbeExpansion,
			LeftPartitioned:  l.sp != nil,
			RightPartitioned: r.sp != nil,
			SamePartitioner:  l.sp != nil && l.sp == r.sp,
			BroadcastBudget:  opts.BroadcastBudget,
		})
		rep.Decision = &dec
		strategy = dec.Strategy
		buildRight = dec.BuildRight
	}
	// Co-partitioning needs a stationary partitioner on the stream
	// side; reorient towards one, or fall back to pairs.
	if strategy == JoinCoPartition {
		switch {
		case buildRight && l.sp == nil && r.sp != nil:
			buildRight = false
		case !buildRight && r.sp == nil && l.sp != nil:
			buildRight = true
		case l.sp == nil && r.sp == nil:
			strategy = JoinPairs
		}
	}
	rep.Strategy = strategy

	if buildRight {
		return joinExec(l, r, pred, order, opts, strategy, rep, makeSink)
	}
	// The build side is the left input: run the executor with the
	// inputs (and the predicate's operands) swapped, and swap every
	// emitted row back so the caller sees the original orientation.
	rep.Swapped = true
	conv := func(a, b stobject.STObject) bool { return pred(b, a) }
	return joinExec(r, l, conv, order, opts, strategy, rep,
		func(numTasks int) func(t int, a Tuple[W], b Tuple[V]) {
			sink := makeSink(numTasks)
			return func(t int, a Tuple[W], b Tuple[V]) { sink(t, b, a) }
		})
}

// joinExec dispatches to the strategy executor; the build side is
// always the right input here.
func joinExec[V, W any](l *SpatialDataset[V], r *SpatialDataset[W], pred stobject.Predicate,
	order int, opts JoinOptions, strategy JoinStrategy, rep *JoinReport,
	makeSink func(numTasks int) func(t int, lkv Tuple[V], rkv Tuple[W])) error {
	switch strategy {
	case JoinBroadcast:
		return joinBroadcast(l, r, pred, order, opts.ProbeExpansion, rep, makeSink)
	case JoinCoPartition:
		return joinCoPartition(l, r, pred, order, opts.ProbeExpansion, rep, makeSink)
	default:
		return joinPairs(l, r, pred, order, opts, rep, makeSink)
	}
}

// joinBroadcast materialises the right side once into a single
// R-tree and streams every left partition against it — one task per
// left partition, no pair enumeration. Left partitions whose extent
// cannot reach the broadcast envelope are pruned.
func joinBroadcast[V, W any](l *SpatialDataset[V], r *SpatialDataset[W], pred stobject.Predicate,
	order int, expand float64, rep *JoinReport,
	makeSink func(numTasks int) func(t int, lkv Tuple[V], rkv Tuple[W])) error {
	right, err := r.ds.Collect()
	if err != nil {
		return err
	}
	rep.BuildRows = int64(len(right))
	ctx := l.Context()
	rec := l.recorder()

	benv := geom.EmptyEnvelope()
	for _, kv := range right {
		benv = benv.ExpandToInclude(kv.Key.Envelope())
	}
	probeReach := benv.ExpandBy(expand)
	var tasks []int
	pruned := 0
	for li := 0; li < l.ds.NumPartitions(); li++ {
		if len(right) == 0 {
			pruned++
			continue
		}
		if l.sp != nil {
			ext := l.sp.Extent(li)
			if ext.IsEmpty() || !ext.Intersects(probeReach) {
				pruned++
				continue
			}
		}
		tasks = append(tasks, li)
	}
	if pruned > 0 {
		rec.TasksSkipped(int64(pruned))
	}
	rep.Tasks = len(tasks)
	sink := makeSink(len(tasks))
	if len(tasks) == 0 {
		return nil
	}

	var tree *index.RTree
	if order > 0 {
		tree = index.New(order)
		for i, kv := range right {
			_ = tree.Insert(kv.Key.Envelope(), int32(i))
		}
		tree.Build()
		rep.TreesBuilt = 1
	}

	taskIdx := make([]int, len(tasks))
	for i := range taskIdx {
		taskIdx[i] = i
	}
	return ctx.RunJobRecorder(nil, rec, taskIdx, func(t int) error {
		li := tasks[t]
		if tree == nil {
			// Nested loop against the broadcast slice.
			var nLeft int64
			err := l.ds.EachPartition(li, func(lkv Tuple[V]) bool {
				nLeft++
				for _, rkv := range right {
					if pred(lkv.Key, rkv.Key) {
						sink(t, lkv, rkv)
					}
				}
				return true
			})
			rec.ElementsScanned(nLeft * int64(len(right)))
			return err
		}
		var (
			candBuf         []int32
			probes, refined int64
		)
		err := l.ds.EachPartition(li, func(lkv Tuple[V]) bool {
			probes++
			candBuf = tree.Query(lkv.Key.Envelope().ExpandBy(expand), candBuf[:0])
			refined += int64(len(candBuf))
			for _, id := range candBuf {
				rkv := right[id]
				if pred(lkv.Key, rkv.Key) {
					sink(t, lkv, rkv)
				}
			}
			return true
		})
		rec.IndexProbes(probes)
		rec.CandidatesRefined(refined)
		return err
	})
}

// joinCoPartition replicates the right side onto the left side's
// spatial partitioner (extent-overlap assignment via the Replicating
// contract) and then joins each left partition against exactly its
// aligned bucket — one task per target partition holding any right
// records. The caller guarantees l.sp != nil.
func joinCoPartition[V, W any](l *SpatialDataset[V], r *SpatialDataset[W], pred stobject.Predicate,
	order int, expand float64, rep *JoinReport,
	makeSink func(numTasks int) func(t int, lkv Tuple[V], rkv Tuple[W])) error {
	ctx := l.Context()
	rec := l.recorder()
	n := l.ds.NumPartitions()

	right, err := r.ds.Collect()
	if err != nil {
		return err
	}
	rep.BuildRows = int64(len(right))

	// Overlap assignment is O(|right| × targets); run it as chunked
	// tasks on the pool with chunk-local buckets, merged below, so
	// the shuffle is not a sequential prefix of the join.
	assigner := partition.OverlapAssigner{SP: l.sp, Expand: expand}
	chunks := ctx.Parallelism()
	if chunks > len(right) {
		chunks = len(right)
	}
	partial := make([][][]Tuple[W], chunks)
	var shuffled atomic.Int64
	if chunks > 0 {
		chunkIdx := make([]int, chunks)
		for i := range chunkIdx {
			chunkIdx[i] = i
		}
		size := (len(right) + chunks - 1) / chunks
		if err := ctx.RunJobRecorder(nil, rec, chunkIdx, func(c int) error {
			lo := c * size
			hi := lo + size
			if hi > len(right) {
				hi = len(right)
			}
			local := make([][]Tuple[W], n)
			var moved int64
			for _, kv := range right[lo:hi] {
				for _, li := range assigner.PartitionsFor(kv.Key) {
					local[li] = append(local[li], kv)
					moved++
				}
			}
			partial[c] = local
			shuffled.Add(moved)
			return nil
		}); err != nil {
			return err
		}
	}
	buckets := make([][]Tuple[W], n)
	for li := 0; li < n; li++ {
		for _, local := range partial {
			buckets[li] = append(buckets[li], local[li]...)
		}
	}
	rec.ShuffledRecords(shuffled.Load())
	rep.Shuffled = shuffled.Load()

	var tasks []int
	pruned := 0
	for li := 0; li < n; li++ {
		if len(buckets[li]) == 0 {
			pruned++ // no aligned right records: nothing can match
			continue
		}
		tasks = append(tasks, li)
	}
	if pruned > 0 {
		rec.TasksSkipped(int64(pruned))
	}
	rep.Tasks = len(tasks)
	sink := makeSink(len(tasks))
	if len(tasks) == 0 {
		return nil
	}

	var treesBuilt atomic.Int64
	taskIdx := make([]int, len(tasks))
	for i := range taskIdx {
		taskIdx[i] = i
	}
	err = ctx.RunJobRecorder(nil, rec, taskIdx, func(t int) error {
		li := tasks[t]
		bucket := buckets[li]
		if order == 0 {
			var nLeft int64
			err := l.ds.EachPartition(li, func(lkv Tuple[V]) bool {
				nLeft++
				for _, rkv := range bucket {
					if pred(lkv.Key, rkv.Key) {
						sink(t, lkv, rkv)
					}
				}
				return true
			})
			rec.ElementsScanned(nLeft * int64(len(bucket)))
			return err
		}
		// The bucket tree is built lazily on the first probe, so a
		// task whose left stream turns out empty never pays the build.
		var (
			tree            *index.RTree
			candBuf         []int32
			probes, refined int64
		)
		err := l.ds.EachPartition(li, func(lkv Tuple[V]) bool {
			if tree == nil {
				tree = index.New(order)
				for i, kv := range bucket {
					_ = tree.Insert(kv.Key.Envelope(), int32(i))
				}
				tree.Build()
				treesBuilt.Add(1)
			}
			probes++
			candBuf = tree.Query(lkv.Key.Envelope().ExpandBy(expand), candBuf[:0])
			refined += int64(len(candBuf))
			for _, id := range candBuf {
				rkv := bucket[id]
				if pred(lkv.Key, rkv.Key) {
					sink(t, lkv, rkv)
				}
			}
			return true
		})
		rec.IndexProbes(probes)
		rec.CandidatesRefined(refined)
		return err
	})
	rep.TreesBuilt = treesBuilt.Load()
	return err
}

// rightSlot shares one right partition's materialised records and
// live R-tree between every pairs-strategy task that probes it. The
// sync.Once closes the check-then-act window that used to let two
// concurrently-missing tasks both build the same tree, and the
// refcount drops the records and tree as soon as the last task
// needing the partition completes — instead of retaining every tree
// until the join ends.
type rightSlot[W any] struct {
	once      sync.Once
	items     []Tuple[W]
	tree      *index.RTree
	err       error
	remaining atomic.Int32
}

// load materialises the partition and (order > 0, non-empty) builds
// its tree, exactly once.
func (s *rightSlot[W]) load(r *SpatialDataset[W], ri, order int, treesBuilt *atomic.Int64) ([]Tuple[W], *index.RTree, error) {
	s.once.Do(func() {
		s.items, s.err = r.ds.ComputePartition(ri)
		if s.err != nil || len(s.items) == 0 || order == 0 {
			return
		}
		t := index.New(order)
		for i, kv := range s.items {
			_ = t.Insert(kv.Key.Envelope(), int32(i))
		}
		t.Build()
		s.tree = t
		treesBuilt.Add(1)
	})
	return s.items, s.tree, s.err
}

// release drops the slot's data once no remaining task needs it. The
// atomic counter orders every reader's release before the final
// decrement, so the nil writes cannot race a read.
func (s *rightSlot[W]) release() {
	if s.remaining.Add(-1) == 0 {
		s.items, s.tree = nil, nil
	}
}

// joinPairs is the pruned partition-pair strategy: enumerate (left,
// right) partition pairs, skip pairs whose extents are disjoint, and
// within each surviving pair probe the right partition's shared live
// R-tree with the streaming left records. Pairs are enumerated
// right-major so tasks sharing a right partition run close together
// and the shared slot is released early.
func joinPairs[V, W any](l *SpatialDataset[V], r *SpatialDataset[W], pred stobject.Predicate,
	order int, opts JoinOptions, rep *JoinReport,
	makeSink func(numTasks int) func(t int, lkv Tuple[V], rkv Tuple[W])) error {
	type task struct{ li, ri int }
	var tasks []task
	prune := !opts.DisablePruning && l.sp != nil && r.sp != nil
	pruned := 0
	for ri := 0; ri < r.ds.NumPartitions(); ri++ {
		for li := 0; li < l.ds.NumPartitions(); li++ {
			if prune {
				le := l.sp.Extent(li).ExpandBy(opts.ProbeExpansion)
				if !le.Intersects(r.sp.Extent(ri)) {
					pruned++
					continue
				}
			}
			tasks = append(tasks, task{li, ri})
		}
	}
	ctx := l.Context()
	rec := l.recorder()
	if pruned > 0 {
		rec.TasksSkipped(int64(pruned))
	}
	rep.Tasks = len(tasks)
	rep.PairsPruned = pruned
	sink := makeSink(len(tasks))

	var treesBuilt atomic.Int64
	slots := make(map[int]*rightSlot[W])
	for _, tk := range tasks {
		s := slots[tk.ri]
		if s == nil {
			s = &rightSlot[W]{}
			slots[tk.ri] = s
		}
		s.remaining.Add(1)
	}

	taskIdx := make([]int, len(tasks))
	for i := range taskIdx {
		taskIdx[i] = i
	}
	err := ctx.RunJobRecorder(nil, rec, taskIdx, func(t int) error {
		li, ri := tasks[t].li, tasks[t].ri
		s := slots[ri]
		defer s.release()
		// The slot loads lazily on the first left record, so a task
		// whose left stream turns out empty never pays the
		// materialisation or the tree build.
		var (
			right           []Tuple[W]
			tree            *index.RTree
			loaded          bool
			loadErr         error
			candBuf         []int32
			probes, refined int64
			nLeft           int64
		)
		err := l.ds.EachPartition(li, func(lkv Tuple[V]) bool {
			if !loaded {
				loaded = true
				right, tree, loadErr = s.load(r, ri, order, &treesBuilt)
			}
			if loadErr != nil || len(right) == 0 {
				return false
			}
			if tree == nil {
				// Nested loop: every pair is checked exactly.
				nLeft++
				for _, rkv := range right {
					if pred(lkv.Key, rkv.Key) {
						sink(t, lkv, rkv)
					}
				}
				return true
			}
			probes++
			candBuf = tree.Query(lkv.Key.Envelope().ExpandBy(opts.ProbeExpansion), candBuf[:0])
			refined += int64(len(candBuf))
			for _, id := range candBuf {
				rkv := right[id]
				if pred(lkv.Key, rkv.Key) {
					sink(t, lkv, rkv)
				}
			}
			return true
		})
		if loadErr != nil {
			return loadErr
		}
		if err != nil {
			return err
		}
		if nLeft > 0 {
			rec.ElementsScanned(nLeft * int64(len(right)))
		}
		rec.IndexProbes(probes)
		rec.CandidatesRefined(refined)
		return nil
	})
	rep.TreesBuilt = treesBuilt.Load()
	return err
}

// Join computes the spatio-temporal join of l and r.
func Join[V, W any](l *SpatialDataset[V], r *SpatialDataset[W], opts JoinOptions) ([]JoinedPair[V, W], error) {
	var results [][]JoinedPair[V, W]
	err := joinRun(l, r, opts, func(numTasks int) func(int, Tuple[V], Tuple[W]) {
		results = make([][]JoinedPair[V, W], numTasks)
		return func(t int, lkv Tuple[V], rkv Tuple[W]) {
			results[t] = append(results[t], JoinedPair[V, W]{
				LeftKey: lkv.Key, LeftVal: lkv.Value,
				RightKey: rkv.Key, RightVal: rkv.Value,
			})
		}
	})
	if err != nil {
		return nil, err
	}
	var all []JoinedPair[V, W]
	for _, r := range results {
		all = append(all, r...)
	}
	return all, nil
}

// SelfJoin joins the dataset with itself — the workload of the
// paper's Figure 4 micro-benchmark. The result includes the identity
// pairs (every record matches itself under Intersects), matching the
// semantics of rdd.join(rdd).
func SelfJoin[V any](s *SpatialDataset[V], opts JoinOptions) ([]JoinedPair[V, V], error) {
	return Join(s, s, opts)
}

// SelfJoinWithinDistanceCount counts the unordered within-eps pairs
// (including self pairs) of the dataset — the exact workload and
// result convention of the paper's Figure 4 micro-benchmark. Compared
// to SelfJoin it exploits the symmetry of the self join (only
// partition pairs li <= ri are processed), streams counts instead of
// materialising result rows, reuses one live R-tree per partition,
// and prunes partition pairs by extent when the dataset is spatially
// partitioned. order <= 0 selects the default R-tree order.
func SelfJoinWithinDistanceCount[V any](s *SpatialDataset[V], eps float64, order int) (int64, error) {
	if order <= 0 {
		order = index.DefaultOrder
	}
	n := s.ds.NumPartitions()
	type task struct{ li, ri int }
	var tasks []task
	pruned := 0
	for li := 0; li < n; li++ {
		for ri := li; ri < n; ri++ {
			if s.sp != nil {
				le := s.sp.Extent(li).ExpandBy(eps)
				if !le.Intersects(s.sp.Extent(ri)) {
					pruned++
					continue
				}
			}
			tasks = append(tasks, task{li, ri})
		}
	}
	ctx := s.Context()
	rec := s.recorder()
	if pruned > 0 {
		rec.TasksSkipped(int64(pruned))
	}

	// Shared per-partition slots: materialisation and tree build run
	// once under sync.Once, and the refcount releases each partition
	// as soon as its last task completes.
	var treesBuilt atomic.Int64
	slots := make(map[int]*rightSlot[V])
	for _, tk := range tasks {
		sl := slots[tk.ri]
		if sl == nil {
			sl = &rightSlot[V]{}
			slots[tk.ri] = sl
		}
		sl.remaining.Add(1)
	}

	var total atomic.Int64
	taskIdx := make([]int, len(tasks))
	for i := range taskIdx {
		taskIdx[i] = i
	}
	err := ctx.RunJobRecorder(nil, rec, taskIdx, func(t int) error {
		li, ri := tasks[t].li, tasks[t].ri
		sl := slots[ri]
		defer sl.release()
		same := li == ri
		var (
			right           []Tuple[V]
			tree            *index.RTree
			loaded          bool
			loadErr         error
			local           int64
			buf             []int32
			probes, refined int64
		)
		load := func() bool {
			if !loaded {
				loaded = true
				right, tree, loadErr = sl.load(s, ri, order, &treesBuilt)
			}
			return loadErr == nil && len(right) > 0
		}
		probe := func(i int, lkv Tuple[V]) {
			probes++
			buf = tree.Query(lkv.Key.Envelope().ExpandBy(eps), buf[:0])
			refined += int64(len(buf))
			for _, j := range buf {
				if same && int(j) < i {
					continue // count unordered pairs once
				}
				if lkv.Key.WithinDistance(right[j].Key, eps, nil) {
					local++
				}
			}
		}
		if same {
			// The left partition is the already-materialised right.
			if !load() {
				return loadErr
			}
			for i, lkv := range right {
				probe(i, lkv)
			}
		} else {
			i := 0
			if err := s.ds.EachPartition(li, func(lkv Tuple[V]) bool {
				// Lazy load: a cross-partition task whose left stream
				// is empty never pays materialisation or build.
				if !load() {
					return false
				}
				probe(i, lkv)
				i++
				return true
			}); err != nil {
				return err
			}
			if loadErr != nil {
				return loadErr
			}
		}
		rec.IndexProbes(probes)
		rec.CandidatesRefined(refined)
		total.Add(local)
		return nil
	})
	return total.Load(), err
}

// JoinCount is Join restricted to counting: matching pairs stream
// into a per-task counter and no JoinedPair row is ever built — the
// benchmark action pays the probe and refinement cost only.
func JoinCount[V, W any](l *SpatialDataset[V], r *SpatialDataset[W], opts JoinOptions) (int64, error) {
	var counts []int64
	err := joinRun(l, r, opts, func(numTasks int) func(int, Tuple[V], Tuple[W]) {
		counts = make([]int64, numTasks)
		return func(t int, _ Tuple[V], _ Tuple[W]) {
			counts[t]++
		}
	})
	if err != nil {
		return 0, err
	}
	var total int64
	for _, c := range counts {
		total += c
	}
	return total, nil
}
