package live

// Generation-tagged attribute postings for mutable datasets. Each
// partition keeps, per registered field, the distinct field values
// sorted ascending with the list of entries carrying each value —
// the mutable counterpart of attr.Index. Entries carry the same
// addGen/delGen tags as the tree entries, so a snapshot pinned at
// generation g probes exactly the records it would see scanning:
// inserts from later batches are invisible, deletes from later
// batches still show.
//
// Concurrency follows the tree's contract: one writer at a time
// (serialised by the dataset mutex) mutates in place — appends an
// entry, tombstones one — under the partition's write latch, readers
// probe under the read latch. Tombstone space is reclaimed by
// rebuilding a partition's postings wholesale and swapping the
// pointer into the writer's working set; published views keep the old
// object, so pinned snapshots never lose a tombstoned entry they can
// still see.

import (
	"fmt"
	"sort"
	"sync"

	"stark/internal/attr"
	"stark/internal/engine"
	"stark/internal/stobject"
)

// postEntry is one record's appearance in a field's postings list.
type postEntry[V any] struct {
	id     int64
	key    stobject.STObject
	val    V
	addGen uint64
	delGen uint64 // 0 while live
}

func (e *postEntry[V]) visibleAt(gen uint64) bool {
	return e.addGen <= gen && (e.delGen == 0 || e.delGen > gen)
}

// fieldPostings is one partition's postings over one field. byID is
// writer-only; everything else is read under the owning partAttrs
// latch.
type fieldPostings[V any] struct {
	field string
	get   func(V) attr.Value
	vals  []attr.Value      // distinct values, sorted ascending
	lists [][]*postEntry[V] // lists[i] holds the entries valued vals[i]
	byID  map[int64]*postEntry[V]
	live  int
	dead  int
}

func newFieldPostings[V any](f attr.Field[V]) *fieldPostings[V] {
	return &fieldPostings[V]{field: f.Name, get: f.Get, byID: make(map[int64]*postEntry[V])}
}

func (fp *fieldPostings[V]) firstGE(v attr.Value) int {
	return sort.Search(len(fp.vals), func(i int) bool { return fp.vals[i].Compare(v) >= 0 })
}

func (fp *fieldPostings[V]) firstGT(v attr.Value) int {
	return sort.Search(len(fp.vals), func(i int) bool { return fp.vals[i].Compare(v) > 0 })
}

// insert files one record under its field value, creating the value's
// list when it is new.
func (fp *fieldPostings[V]) insert(id int64, key stobject.STObject, val V, gen uint64) {
	v := fp.get(val)
	e := &postEntry[V]{id: id, key: key, val: val, addGen: gen}
	i := fp.firstGE(v)
	if i < len(fp.vals) && fp.vals[i].Compare(v) == 0 {
		fp.lists[i] = append(fp.lists[i], e)
	} else {
		fp.vals = append(fp.vals, attr.Value{})
		copy(fp.vals[i+1:], fp.vals[i:])
		fp.vals[i] = v
		fp.lists = append(fp.lists, nil)
		copy(fp.lists[i+1:], fp.lists[i:])
		fp.lists[i] = []*postEntry[V]{e}
	}
	fp.byID[id] = e
	fp.live++
}

// tombstone marks the live entry with the given ID deleted at gen.
func (fp *fieldPostings[V]) tombstone(id int64, gen uint64) {
	e, ok := fp.byID[id]
	if !ok {
		return
	}
	e.delGen = gen
	delete(fp.byID, id)
	fp.live--
	fp.dead++
}

// spans resolves p to half-open ranges over the sorted distinct
// values, one per OpIn set member, at most one otherwise.
func (fp *fieldPostings[V]) spans(p attr.Pred) [][2]int {
	n := len(fp.vals)
	switch p.Op {
	case attr.OpEq:
		return [][2]int{{fp.firstGE(p.Lo), fp.firstGT(p.Lo)}}
	case attr.OpLt:
		return [][2]int{{0, fp.firstGE(p.Lo)}}
	case attr.OpLe:
		return [][2]int{{0, fp.firstGT(p.Lo)}}
	case attr.OpGt:
		return [][2]int{{fp.firstGT(p.Lo), n}}
	case attr.OpGe:
		return [][2]int{{fp.firstGE(p.Lo), n}}
	case attr.OpBetween:
		return [][2]int{{fp.firstGE(p.Lo), fp.firstGT(p.Hi)}}
	case attr.OpIn:
		spans := make([][2]int, 0, len(p.Set))
		for _, v := range p.Set {
			spans = append(spans, [2]int{fp.firstGE(v), fp.firstGT(v)})
		}
		return spans
	}
	return nil
}

// probe streams every entry matching p and visible at gen, returning
// the candidate count (before the visibility filter). The caller
// holds the partAttrs read latch.
func (fp *fieldPostings[V]) probe(p attr.Pred, gen uint64, yield func(e *postEntry[V]) bool) int {
	candidates := 0
	for _, sp := range fp.spans(p) {
		for _, list := range fp.lists[sp[0]:sp[1]] {
			candidates += len(list)
			for _, e := range list {
				if !e.visibleAt(gen) {
					continue
				}
				if !yield(e) {
					return candidates
				}
			}
		}
	}
	return candidates
}

// rebuild returns fresh postings holding only the live entries.
func (fp *fieldPostings[V]) rebuild(f attr.Field[V]) *fieldPostings[V] {
	nf := newFieldPostings(f)
	for _, list := range fp.lists {
		for _, e := range list {
			if e.delGen == 0 {
				nf.insert(e.id, e.key, e.val, e.addGen)
			}
		}
	}
	return nf
}

// partAttrs holds one partition's field postings behind a read-write
// latch. The single writer mutates under the write latch; snapshot
// probes read under the read latch; generation tags keep pinned reads
// repeatable despite the shared structure.
type partAttrs[V any] struct {
	mu     sync.RWMutex
	fields map[string]*fieldPostings[V]
}

// ---- Dataset writer side (caller holds d.mu) ----

// SetAttrFields registers the payload fields whose postings the
// dataset maintains across batches, backfilling them from the records
// already live. Calling it again replaces the field set (existing
// fields keep their postings; removed ones are dropped; new ones are
// backfilled). Snapshots taken before the call do not see the new
// fields — their probes fall back to scans.
func (d *Dataset[V]) SetAttrFields(fields []attr.Field[V]) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.attrFields = append([]attr.Field[V](nil), fields...)
	gen := d.view.Load().gen
	for p := range d.trees {
		old := d.attrs[p]
		pa := &partAttrs[V]{fields: make(map[string]*fieldPostings[V], len(fields))}
		for _, f := range fields {
			if old != nil {
				if fp, ok := old.fields[f.Name]; ok {
					pa.fields[f.Name] = fp
					continue
				}
			}
			fp := newFieldPostings(f)
			d.trees[p].search(everything, gen, true, func(e Entry[V]) bool {
				fp.insert(e.ID, e.Key, e.Value, e.addGen)
				return true
			})
			pa.fields[f.Name] = fp
		}
		d.attrs[p] = pa
	}
	d.publish(gen)
}

// attrInsert files rec into partition p's postings (no-op without
// registered fields).
func (d *Dataset[V]) attrInsert(p int, rec Record[V], gen uint64) {
	pa := d.attrs[p]
	if pa == nil {
		return
	}
	pa.mu.Lock()
	for _, fp := range pa.fields {
		fp.insert(rec.ID, rec.Key, rec.Value, gen)
	}
	pa.mu.Unlock()
}

// attrDelete tombstones id in partition p's postings.
func (d *Dataset[V]) attrDelete(p int, id int64, gen uint64) {
	pa := d.attrs[p]
	if pa == nil {
		return
	}
	pa.mu.Lock()
	for _, fp := range pa.fields {
		fp.tombstone(id, gen)
	}
	pa.mu.Unlock()
}

// attrVacuum rebuilds partitions whose postings carry more tombstones
// than live entries (past the shared floor), pointer-swapping the new
// object into the writer's working set so pinned snapshots keep the
// old one.
func (d *Dataset[V]) attrVacuum() {
	for p, pa := range d.attrs {
		if pa == nil {
			continue
		}
		needs := false
		for _, fp := range pa.fields {
			if fp.dead >= vacuumFloor && fp.dead > fp.live {
				needs = true
				break
			}
		}
		if !needs {
			continue
		}
		np := &partAttrs[V]{fields: make(map[string]*fieldPostings[V], len(pa.fields))}
		for _, f := range d.attrFields {
			if fp, ok := pa.fields[f.Name]; ok {
				np.fields[f.Name] = fp.rebuild(f)
			}
		}
		d.attrs[p] = np
	}
}

// ---- Snapshot reader side ----

// HasAttrField reports whether the pinned view maintains postings for
// the named field.
func (s *Snapshot[V]) HasAttrField(name string) bool {
	for _, pa := range s.v.attrs {
		if pa == nil {
			return false
		}
		pa.mu.RLock()
		_, ok := pa.fields[name]
		pa.mu.RUnlock()
		if !ok {
			return false
		}
	}
	return len(s.v.attrs) > 0
}

// AttrProbeRecorder probes the pinned view's postings for p over the
// visited partitions, refines each candidate with the payload-aware
// predicate, and returns the survivors per visited partition (aligned
// with visit). Probe metrics are charged to rec (nil selects the
// context's root recorder): one index probe per partition, the
// postings candidates as candidates refined.
func (s *Snapshot[V]) AttrProbeRecorder(
	rec *engine.Recorder,
	p attr.Pred,
	refine func(key stobject.STObject, value V) bool,
	visit []int,
) ([][]engine.Pair[stobject.STObject, V], error) {
	v := s.v
	rows := make([][]engine.Pair[stobject.STObject, V], len(visit))
	if rec == nil {
		rec = s.d.ctx.Recorder()
	}
	tasks := make([]int, len(visit))
	for i := range visit {
		tasks[i] = i
	}
	err := s.d.ctx.RunJobRecorder(nil, rec, tasks, func(i int) error {
		part := visit[i]
		pa := v.attrs[part]
		if pa == nil {
			return fmt.Errorf("live: no attribute postings for partition %d (SetAttrFields first)", part)
		}
		pa.mu.RLock()
		fp, ok := pa.fields[p.Field]
		if !ok {
			pa.mu.RUnlock()
			return fmt.Errorf("live: no attribute postings for field %q (SetAttrFields first)", p.Field)
		}
		// Candidates are copied out under the read latch; refinement
		// runs on the copies so arbitrary predicate work never holds
		// the latch.
		var cands []engine.Pair[stobject.STObject, V]
		candidates := fp.probe(p, v.gen, func(e *postEntry[V]) bool {
			cands = append(cands, engine.NewPair(e.key, e.val))
			return true
		})
		pa.mu.RUnlock()
		var out []engine.Pair[stobject.STObject, V]
		for _, kv := range cands {
			if refine(kv.Key, kv.Value) {
				out = append(out, kv)
			}
		}
		rec.IndexProbes(1)
		rec.CandidatesRefined(int64(candidates))
		rows[i] = out
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}
