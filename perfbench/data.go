package main

// Seeded input generation and the benchmark's own oracle. Nothing in
// this file calls into the program: events, queries, mutation batches
// and join inputs are generated here from the --seed argument, and the
// expected answers are computed here by brute force over a grid hash,
// so a wrong answer from the program cannot also be wrong in the
// oracle.

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
)

const (
	space     = 1000.0    // data space is [0, space)²
	timeRange = 1_000_000 // instants are in [0, timeRange)
	gridCells = 256       // oracle grid resolution per axis
)

var categories = []string{"politics", "sports", "culture", "disaster", "science"}

// event is one generated record: the paper's (id, category, time, wkt).
type event struct {
	ID   int64
	Cat  string
	T    int64
	X, Y float64
}

func (e event) wkt() string { return "POINT (" + num(e.X) + " " + num(e.Y) + ")" }

// num renders a coordinate in its shortest round-tripping form, so the
// program parses exactly the float64 the oracle compares against.
func num(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }

// round4 snaps a coordinate to four decimals.
func round4(v float64) float64 { return math.Round(v*1e4) / 1e4 }

// skew draws points from a fixed set of Gaussian clusters ("events on
// land"), the data shape that breaks equal-grid partitioning. The 12
// cluster centres are jittered points of a 4×3 lattice rather than
// uniform draws, so clusters do not pile onto each other on some seeds
// and not on others: the data differs per seed, its density profile
// does not.
type skew struct {
	rng     *rand.Rand
	centers [][2]float64
}

func newSkew(rng *rand.Rand) *skew {
	s := &skew{rng: rng, centers: make([][2]float64, 12)}
	for i := range s.centers {
		cx := (float64(i%4) + 0.25 + rng.Float64()/2) / 4
		cy := (float64(i/4) + 0.25 + rng.Float64()/2) / 3
		s.centers[i] = [2]float64{cx * space, cy * space}
	}
	return s
}

// with returns a generator over the same clusters drawing from rng.
func (s *skew) with(rng *rand.Rand) *skew { return &skew{rng: rng, centers: s.centers} }

func (s *skew) point() (float64, float64) {
	c := s.centers[s.rng.Intn(len(s.centers))]
	sd := space / 60
	x := math.Min(math.Max(c[0]+s.rng.NormFloat64()*sd, 0), space-1e-4)
	y := math.Min(math.Max(c[1]+s.rng.NormFloat64()*sd, 0), space-1e-4)
	return round4(x), round4(y)
}

func (s *skew) event(id int64) event {
	x, y := s.point()
	return event{ID: id, Cat: categories[s.rng.Intn(len(categories))], T: s.rng.Int63n(timeRange), X: x, Y: y}
}

func (s *skew) events(n int, firstID int64) []event {
	out := make([]event, n)
	for i := range out {
		out[i] = s.event(firstID + int64(i))
	}
	return out
}

// ---- grid hash over events ----

// grid buckets events by cell and keeps a summed-area table of the
// cell counts, so window sizing is O(1) and exact counting touches
// only the cells a window overlaps.
type grid struct {
	events []event
	cells  [][]int32
	sat    []int64 // (gridCells+1)² prefix sums
}

func newGrid(events []event) *grid {
	g := &grid{events: events, cells: make([][]int32, gridCells*gridCells)}
	for i, e := range events {
		c := cellOf(e.Y)*gridCells + cellOf(e.X)
		g.cells[c] = append(g.cells[c], int32(i))
	}
	n := gridCells + 1
	g.sat = make([]int64, n*n)
	for y := 0; y < gridCells; y++ {
		for x := 0; x < gridCells; x++ {
			g.sat[(y+1)*n+x+1] = int64(len(g.cells[y*gridCells+x])) +
				g.sat[y*n+x+1] + g.sat[(y+1)*n+x] - g.sat[y*n+x]
		}
	}
	return g
}

func cellOf(v float64) int {
	c := int(v / space * gridCells)
	return min(max(c, 0), gridCells-1)
}

// approx counts the events in the cells a square overlaps.
func (g *grid) approx(cx, cy, h float64) int64 {
	x1, y1, x2, y2 := cellOf(cx-h), cellOf(cy-h), cellOf(cx+h)+1, cellOf(cy+h)+1
	n := gridCells + 1
	return g.sat[y2*n+x2] - g.sat[y1*n+x2] - g.sat[y2*n+x1] + g.sat[y1*n+x1]
}

// count is the exact oracle: every event in the overlapped cells is
// tested against the full predicate.
func (g *grid) count(q *query) int64 {
	x1, y1, x2, y2 := q.bbox()
	var n int64
	for cy := cellOf(y1); cy <= cellOf(y2); cy++ {
		for cx := cellOf(x1); cx <= cellOf(x2); cx++ {
			for _, i := range g.cells[cy*gridCells+cx] {
				if q.match(&g.events[i]) {
					n++
				}
			}
		}
	}
	return n
}

// ---- queries ----

// Query kinds.
const (
	kindWindow   = iota // intersects with a rectangle
	kindDistance        // withindistance of a point
)

// Where-clause shapes.
const (
	whereNone        = iota
	whereSelective   // category eq + narrow id range
	whereUnselective // time range of selectivity ~0.9
)

// query is one generated /api/v1/query request with its predicate in
// oracle form.
type query struct {
	kind           int
	x1, y1, x2, y2 float64 // window (kindWindow)
	cx, cy, r      float64 // centre and distance (kindDistance)
	tb, te         int64   // closed time range
	where          int
	cat            string
	idLo, idHi     int64
	wtLo, wtHi     int64
	body           []byte
	want           int64 // oracle count; -1 when the data is live
}

func (q *query) bbox() (x1, y1, x2, y2 float64) {
	if q.kind == kindWindow {
		return q.x1, q.y1, q.x2, q.y2
	}
	return q.cx - q.r, q.cy - q.r, q.cx + q.r, q.cy + q.r
}

// match is the oracle predicate: spatial intersects/withindistance
// (boundaries inclusive), closed time range, and the where clause.
func (q *query) match(e *event) bool {
	if e.T < q.tb || e.T > q.te {
		return false
	}
	if q.kind == kindWindow {
		if e.X < q.x1 || e.X > q.x2 || e.Y < q.y1 || e.Y > q.y2 {
			return false
		}
	} else {
		dx, dy := e.X-q.cx, e.Y-q.cy
		if math.Sqrt(dx*dx+dy*dy) > q.r {
			return false
		}
	}
	switch q.where {
	case whereSelective:
		return e.Cat == q.cat && e.ID >= q.idLo && e.ID <= q.idHi
	case whereUnselective:
		return e.T >= q.wtLo && e.T <= q.wtHi
	}
	return true
}

// wire forms of the request body.
type wireWhere struct {
	Field  string `json:"field"`
	Op     string `json:"op"`
	Value  any    `json:"value"`
	Value2 any    `json:"value2,omitempty"`
}

type wireQuery struct {
	Dataset   string      `json:"dataset"`
	Predicate string      `json:"predicate"`
	WKT       string      `json:"wkt"`
	HasTime   bool        `json:"hasTime"`
	Begin     int64       `json:"begin"`
	End       int64       `json:"end"`
	Distance  float64     `json:"distance,omitempty"`
	Where     []wireWhere `json:"where,omitempty"`
}

func (q *query) encode(dataset string) {
	w := wireQuery{Dataset: dataset, HasTime: true, Begin: q.tb, End: q.te}
	if q.kind == kindWindow {
		w.Predicate = "intersects"
		w.WKT = fmt.Sprintf("POLYGON ((%s %s, %s %s, %s %s, %s %s, %s %s))",
			num(q.x1), num(q.y1), num(q.x2), num(q.y1), num(q.x2), num(q.y2), num(q.x1), num(q.y2), num(q.x1), num(q.y1))
	} else {
		w.Predicate = "withindistance"
		w.WKT = "POINT (" + num(q.cx) + " " + num(q.cy) + ")"
		w.Distance = q.r
	}
	switch q.where {
	case whereSelective:
		w.Where = []wireWhere{
			{Field: "category", Op: "eq", Value: q.cat},
			{Field: "id", Op: "between", Value: q.idLo, Value2: q.idHi},
		}
	case whereUnselective:
		w.Where = []wireWhere{{Field: "time", Op: "between", Value: q.wtLo, Value2: q.wtHi}}
	}
	b, err := json.Marshal(w)
	if err != nil {
		panic(err) // only plain values are marshalled
	}
	q.body = b
}

// queryGen draws queries centred on randomly chosen events, with the
// window sized on the grid so it holds a target number of events
// before the time and where filters: on skewed data an uncentred or
// fixed-size window is mostly empty or enormous, which makes latency
// figures depend on the seed rather than on the code.
type queryGen struct {
	rng     *rand.Rand
	g       *grid
	dataset string
	target  [2]int64 // spatial hits before time/where filters
	idSpan  int64    // id range of a selective where clause
}

// newQueryGen sizes windows to hold 0.75% to 1.5% of the rows before
// the time and where filters (1500 to 3000 of 200k).
func newQueryGen(rng *rand.Rand, g *grid, dataset string) *queryGen {
	n := int64(len(g.events))
	return &queryGen{rng: rng, g: g, dataset: dataset,
		target: [2]int64{max(n*3/400, 10), max(n*3/200, 20)}, idSpan: n / 10}
}

// next draws a query and computes its oracle count.
func (qg *queryGen) next() *query {
	q := qg.draw()
	q.want = qg.g.count(q)
	return q
}

// nextLive draws a query against live data: the answer depends on the
// generation the read pins, so it is checked row by row instead.
func (qg *queryGen) nextLive() *query {
	q := qg.draw()
	q.want = -1
	return q
}

func (qg *queryGen) draw() *query {
	rng := qg.rng
	c := qg.g.events[rng.Intn(len(qg.g.events))]
	want := qg.target[0] + rng.Int63n(qg.target[1]-qg.target[0]+1)
	// Binary search the half-side whose covered cells hold ~want events.
	lo, hi := 0.01, space/2
	for i := 0; i < 14; i++ {
		mid := (lo + hi) / 2
		if qg.g.approx(c.X, c.Y, mid) < want {
			lo = mid
		} else {
			hi = mid
		}
	}
	h := round4(math.Max(hi, 0.5))
	q := &query{tb: rng.Int63n(timeRange / 2)}
	q.te = q.tb + timeRange/2
	if rng.Intn(2) == 0 {
		q.kind = kindWindow
		q.x1, q.y1, q.x2, q.y2 = round4(c.X-h), round4(c.Y-h), round4(c.X+h), round4(c.Y+h)
	} else {
		q.kind = kindDistance
		q.cx, q.cy, q.r = c.X, c.Y, round4(h*1.1284) // circle of the square's area
	}
	switch rng.Intn(6) {
	case 0:
		q.where = whereSelective
		q.cat = c.Cat
		q.idLo = max(c.ID-qg.idSpan/2, 0)
		q.idHi = q.idLo + qg.idSpan
	case 1:
		q.where = whereUnselective
		q.wtLo, q.wtHi = timeRange/20, timeRange-timeRange/20
	}
	q.encode(qg.dataset)
	return q
}

// ---- mutation batches ----

// model is the benchmark-side state of a mutable dataset: what every
// acknowledged batch says the dataset holds.
type model struct {
	live map[int64]event
	ids  []int64       // live ids, for uniform choice
	pos  map[int64]int // id -> index in ids
	next int64         // next fresh id
}

func newModel(initial []event) *model {
	m := &model{live: make(map[int64]event, len(initial)), pos: make(map[int64]int, len(initial))}
	for _, e := range initial {
		m.put(e)
		m.next = max(m.next, e.ID+1)
	}
	return m
}

func (m *model) put(e event) {
	if _, ok := m.live[e.ID]; !ok {
		m.pos[e.ID] = len(m.ids)
		m.ids = append(m.ids, e.ID)
	}
	m.live[e.ID] = e
}

func (m *model) del(id int64) {
	i := m.pos[id]
	last := m.ids[len(m.ids)-1]
	m.ids[i] = last
	m.pos[last] = i
	m.ids = m.ids[:len(m.ids)-1]
	delete(m.pos, id)
	delete(m.live, id)
}

// clone copies the model.
func (m *model) clone() *model {
	c := &model{live: make(map[int64]event, len(m.live)), ids: append([]int64(nil), m.ids...),
		pos: make(map[int64]int, len(m.pos)), next: m.next}
	for id, e := range m.live {
		c.live[id] = e
	}
	for id, i := range m.pos {
		c.pos[id] = i
	}
	return c
}

// mutation is one line of an ingest batch.
type mutation struct {
	op string // insert | upsert | delete
	ev event
}

// batch is one ingest request: its NDJSON body and what it does.
type batch struct {
	muts                      []mutation
	body                      []byte
	inserts, upserts, deletes int
}

// nextBatch draws a batch against the model without applying it, in
// random order: inserts of fresh ids and deletes of distinct live ids,
// as many of each (7 of 16), and upserts of distinct live ids (2 of
// 16). Deletes balance inserts exactly, so the live set keeps its
// registered size however long the writer runs: a reader's
// per-generation rebuild costs the same early and late in a run, while
// the data dir still grows with what was written.
func (m *model) nextBatch(s *skew, size int) *batch {
	half := (size - size/8) / 2
	b := &batch{inserts: half, deletes: half, upserts: size - 2*half}
	ops := make([]string, 0, size)
	for i := 0; i < half; i++ {
		ops = append(ops, "insert", "delete")
	}
	for len(ops) < size {
		ops = append(ops, "upsert")
	}
	s.rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	touched := make(map[int64]bool, size)
	fresh := m.next
	for _, op := range ops {
		if op == "insert" {
			b.muts = append(b.muts, mutation{op: op, ev: s.event(fresh)})
			fresh++
			continue
		}
		id := m.ids[s.rng.Intn(len(m.ids))]
		for touched[id] {
			id = m.ids[s.rng.Intn(len(m.ids))]
		}
		touched[id] = true
		e := event{ID: id}
		if op == "upsert" {
			e = s.event(id)
		}
		b.muts = append(b.muts, mutation{op: op, ev: e})
	}
	var sb strings.Builder
	for _, mu := range b.muts {
		if mu.op == "delete" {
			fmt.Fprintf(&sb, "{\"op\":\"delete\",\"id\":%d}\n", mu.ev.ID)
			continue
		}
		fmt.Fprintf(&sb, "{\"op\":%q,\"id\":%d,\"category\":%q,\"time\":%d,\"wkt\":%q}\n",
			mu.op, mu.ev.ID, mu.ev.Cat, mu.ev.T, mu.ev.wkt())
	}
	b.body = []byte(sb.String())
	return b
}

// apply commits an acknowledged batch to the model.
func (m *model) apply(b *batch) {
	for _, mu := range b.muts {
		if mu.op == "delete" {
			m.del(mu.ev.ID)
		} else {
			m.put(mu.ev)
		}
	}
	m.next += int64(b.inserts)
}

// count is the brute-force oracle over the model.
func (m *model) count(q *query) int64 {
	var n int64
	for _, e := range m.live {
		if q.match(&e) {
			n++
		}
	}
	return n
}

// ---- join inputs ----

// rect is an axis-aligned region of the contains join.
type rect struct{ x1, y1, x2, y2 float64 }

func (r rect) wkt() string {
	return fmt.Sprintf("POLYGON ((%s %s, %s %s, %s %s, %s %s, %s %s))",
		num(r.x1), num(r.y1), num(r.x2), num(r.y1), num(r.x2), num(r.y2), num(r.x1), num(r.y2), num(r.x1), num(r.y1))
}

func genRegions(rng *rand.Rand, m int) []rect {
	out := make([]rect, m)
	for i := range out {
		w := round4((0.005 + rng.Float64()*0.02) * space)
		h := round4((0.005 + rng.Float64()*0.02) * space)
		x := round4(rng.Float64() * (space - w))
		y := round4(rng.Float64() * (space - h))
		out[i] = rect{x, y, x + w, y + h}
	}
	return out
}

// selfJoinPairs counts the ordered pairs (identity included) of points
// within eps of each other, by grid hash with eps-sized cells.
func selfJoinPairs(pts []event, eps float64) int64 {
	type key struct{ x, y int }
	cells := make(map[key][]int32, len(pts))
	for i, p := range pts {
		k := key{int(p.X / eps), int(p.Y / eps)}
		cells[k] = append(cells[k], int32(i))
	}
	var n int64
	for _, p := range pts {
		kx, ky := int(p.X/eps), int(p.Y/eps)
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				for _, j := range cells[key{kx + dx, ky + dy}] {
					q := pts[j]
					ddx, ddy := p.X-q.X, p.Y-q.Y
					if math.Sqrt(ddx*ddx+ddy*ddy) <= eps {
						n++
					}
				}
			}
		}
	}
	return n
}

// containsPairs counts (region, point) pairs with the point strictly
// inside the region.
func containsPairs(regions []rect, g *grid) int64 {
	var n int64
	for _, r := range regions {
		for cy := cellOf(r.y1); cy <= cellOf(r.y2); cy++ {
			for cx := cellOf(r.x1); cx <= cellOf(r.x2); cx++ {
				for _, i := range g.cells[cy*gridCells+cx] {
					e := &g.events[i]
					if e.X > r.x1 && e.X < r.x2 && e.Y > r.y1 && e.Y < r.y2 {
						n++
					}
				}
			}
		}
	}
	return n
}
