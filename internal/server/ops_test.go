package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"stark"
	"stark/internal/workload"
)

// legacyRoutes are the pre-v1 demonstration endpoints; /api/v1/query
// and GET /api/datasets/{name} replaced them.
var legacyRoutes = []string{"/api/query", "/api/explain", "/api/knn", "/api/cluster", "/api/stats"}

func TestLegacyRoutesAreGone(t *testing.T) {
	s := testServer(t, 20)
	for _, path := range legacyRoutes {
		for _, method := range []string{http.MethodGet, http.MethodPost} {
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader([]byte(`{}`))))
			if rec.Code != http.StatusNotFound {
				t.Errorf("%s %s: status = %d, want 404", method, path, rec.Code)
			}
		}
	}
}

// filterWindow is the filter half of the differential requests and
// its DSL twin.
var filterWindow = QueryRequest{
	Predicate: "intersects",
	WKT:       "POLYGON ((10 10, 70 10, 70 70, 10 70, 10 10))",
	HasTime:   true, Begin: 0, End: 600,
}

func filterWindowDSL(t *testing.T) stark.STObject {
	t.Helper()
	q, err := queryObject(filterWindow)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestKNNAndClusterMatchDSL is the differential gate for the kNN and
// DBSCAN ops: over the same catalog dataset, with and without a
// filter, /api/v1/query returns exactly the rows, distances and labels
// of Dataset.KNN and Dataset.Cluster.
func TestKNNAndClusterMatchDSL(t *testing.T) {
	s := testServer(t, 400)
	entry, _ := s.catalog.Get(DefaultDataset)
	for _, filtered := range []bool{false, true} {
		base := entry.dataset()
		var filter QueryRequest
		if filtered {
			base = base.Intersects(filterWindowDSL(t))
			filter = filterWindow
		}

		q, err := stark.FromWKT("POINT (40 40)")
		if err != nil {
			t.Fatal(err)
		}
		want, err := base.KNN(q, 7)
		if err != nil {
			t.Fatal(err)
		}
		rec := postV1Query(t, s, ServiceQueryRequest{QueryRequest: filter, KNN: &KNNRequest{WKT: "POINT (40 40)", K: 7}})
		if rec.Code != http.StatusOK {
			t.Fatalf("filtered=%v knn status = %d: %s", filtered, rec.Code, rec.Body.String())
		}
		feats, sum := ndjsonResponse(t, rec.Body.Bytes())
		if len(feats) != len(want) || sum.Count != int64(len(want)) || len(want) != 7 {
			t.Fatalf("filtered=%v knn: %d rows (summary %d), DSL %d", filtered, len(feats), sum.Count, len(want))
		}
		for i, f := range feats {
			props := f["properties"].(map[string]interface{})
			if int(props["id"].(float64)) != want[i].Value.ID || props["distance"].(float64) != want[i].Distance {
				t.Errorf("filtered=%v knn row %d = id %v distance %v, DSL id %d distance %v",
					filtered, i, props["id"], props["distance"], want[i].Value.ID, want[i].Distance)
			}
		}

		opts := stark.ClusterOptions{Eps: 6, MinPts: 3}
		recs, n, err := base.Cluster(opts)
		if err != nil {
			t.Fatal(err)
		}
		wantLabel := make(map[int]int, len(recs))
		for _, r := range recs {
			wantLabel[r.Value.ID] = r.Cluster
		}
		rec = postV1Query(t, s, ServiceQueryRequest{QueryRequest: filter, Cluster: &ClusterRequest{Eps: opts.Eps, MinPts: opts.MinPts}})
		if rec.Code != http.StatusOK {
			t.Fatalf("filtered=%v cluster status = %d: %s", filtered, rec.Code, rec.Body.String())
		}
		feats, sum = ndjsonResponse(t, rec.Body.Bytes())
		if sum.Clusters == nil || *sum.Clusters != n || n == 0 {
			t.Errorf("filtered=%v clusters = %v, DSL %d", filtered, sum.Clusters, n)
		}
		if len(feats) != len(recs) || sum.Count != int64(len(recs)) {
			t.Fatalf("filtered=%v cluster: %d rows (summary %d), DSL %d", filtered, len(feats), sum.Count, len(recs))
		}
		for _, f := range feats {
			props := f["properties"].(map[string]interface{})
			id := int(props["id"].(float64))
			if label, ok := wantLabel[id]; !ok || int(props["cluster"].(float64)) != label {
				t.Errorf("filtered=%v cluster id %d label %v, DSL %d (present %v)", filtered, id, props["cluster"], label, ok)
			}
		}
	}
}

func TestQueryV1OpsAreExclusive(t *testing.T) {
	s := testServer(t, 20)
	knn := &KNNRequest{WKT: "POINT (1 1)", K: 1}
	cl := &ClusterRequest{Eps: 1, MinPts: 1}
	for _, req := range []ServiceQueryRequest{
		{Join: &JoinSpec{}, KNN: knn},
		{Join: &JoinSpec{}, Cluster: cl},
		{KNN: knn, Cluster: cl},
	} {
		if rec := postV1Query(t, s, req); rec.Code != http.StatusBadRequest {
			t.Errorf("query %+v: status = %d, want 400", req, rec.Code)
		}
		body, _ := json.Marshal(req)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/explain", bytes.NewReader(body)))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("explain %+v: status = %d, want 400", req, rec.Code)
		}
	}
	// A filter field the plain path would reject is rejected for the
	// ops too, not dropped.
	bad := QueryRequest{HasTime: true, End: 5}
	if rec := postV1Query(t, s, ServiceQueryRequest{QueryRequest: bad, KNN: knn}); rec.Code != http.StatusBadRequest {
		t.Errorf("knn with a bad filter: status = %d, want 400", rec.Code)
	}
	if rec := postV1Query(t, s, ServiceQueryRequest{QueryRequest: bad, Cluster: cl}); rec.Code != http.StatusBadRequest {
		t.Errorf("cluster with a bad filter: status = %d, want 400", rec.Code)
	}
}

// TestKNNAndClusterTrace checks the trace trailer of the action ops,
// and that repeated unfiltered requests do not accumulate phases on
// the shared catalog dataset.
func TestKNNAndClusterTrace(t *testing.T) {
	s := testServer(t, 200)
	for i := 0; i < 2; i++ {
		for op, req := range map[string]ServiceQueryRequest{
			"knn":     {KNN: &KNNRequest{WKT: "POINT (50 50)", K: 3}, Trace: true},
			"cluster": {Cluster: &ClusterRequest{Eps: 5, MinPts: 4}, Trace: true},
		} {
			rec := postV1Query(t, s, req)
			if rec.Code != http.StatusOK {
				t.Fatalf("%s status = %d: %s", op, rec.Code, rec.Body.String())
			}
			_, sum := ndjsonResponse(t, rec.Body.Bytes())
			if sum.Trace == nil || len(sum.Trace.Children) != 1 || sum.Trace.Children[0].Op != op {
				t.Fatalf("%s request %d: trace = %+v, want one %q phase", op, i, sum.Trace, op)
			}
			if sum.Trace.Rows != sum.Count {
				t.Errorf("%s trace rows = %d, summary count %d", op, sum.Trace.Rows, sum.Count)
			}
		}
	}
}

// saturate holds the service's only admission slot and parks one
// filter query in its only queue place, so the next request that
// needs a slot is rejected with 429. release frees the slot and
// checks the parked query then completes.
func saturate(t *testing.T, s *Server) (release func()) {
	t.Helper()
	if err := s.adm.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	done := make(chan int, 1)
	go func() {
		data, _ := json.Marshal(windowQuery(""))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/query", bytes.NewReader(data)))
		done <- rec.Code
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.adm.Stats().Waiting == 0 {
		if time.Now().After(deadline) {
			t.Fatal("parked query never queued")
		}
		time.Sleep(time.Millisecond)
	}
	return func() {
		s.adm.Release()
		if code := <-done; code != http.StatusOK {
			t.Errorf("parked query status = %d after release", code)
		}
	}
}

func saturatedService(t *testing.T) *Server {
	s, _ := testService(t, 200, Options{MaxConcurrent: 1, QueueDepth: 1, QueueTimeout: 10 * time.Second})
	return s
}

func TestKNNAndClusterPassAdmission(t *testing.T) {
	s := saturatedService(t)
	release := saturate(t, s)
	for _, req := range []ServiceQueryRequest{
		{KNN: &KNNRequest{WKT: "POINT (50 50)", K: 5}},
		{Cluster: &ClusterRequest{Eps: 5, MinPts: 4}},
	} {
		if rec := postV1Query(t, s, req); rec.Code != http.StatusTooManyRequests {
			t.Errorf("saturated %+v: status = %d, want 429", req, rec.Code)
		}
	}
	release()
	if st := s.adm.Stats(); st.RejectedFull != 2 {
		t.Errorf("RejectedFull = %d, want 2", st.RejectedFull)
	}
}

// TestFilterExplainPassesAdmission pins the filter EXPLAIN path behind
// the admission gate: ExplainNode executes the filter, so a saturated
// service must turn it away like the query itself.
func TestFilterExplainPassesAdmission(t *testing.T) {
	s := saturatedService(t)
	before := scrapeCounter(t, s, "stark_admission_rejected_full_total")
	release := saturate(t, s)
	body, _ := json.Marshal(windowQuery(""))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/explain", bytes.NewReader(body)))
	if rec.Code != http.StatusTooManyRequests {
		t.Errorf("saturated filter explain: status = %d, want 429: %s", rec.Code, rec.Body.String())
	}
	release()
	if after := scrapeCounter(t, s, "stark_admission_rejected_full_total"); after != before+1 {
		t.Errorf("stark_admission_rejected_full_total = %v, want %v", after, before+1)
	}
}

// TestJoinFilterAppliesWhere checks a join's left-side filter honours
// where clauses like every other filter field.
func TestJoinFilterAppliesWhere(t *testing.T) {
	s := testServer(t, 50)
	pts := make([]workload.Event, 6)
	for i := range pts {
		pts[i] = workload.Event{ID: i, Category: []string{"a", "b"}[i%2], Time: 1, WKT: "POINT (1 1)"}
	}
	if err := s.RegisterEvents(DatasetSpec{Name: "pts"}, pts); err != nil {
		t.Fatal(err)
	}
	req := ServiceQueryRequest{
		Dataset:      "pts",
		QueryRequest: QueryRequest{Where: WhereClauses{{Field: "category", Op: "eq", Value: "a"}}},
		Join:         &JoinSpec{With: "pts"},
	}
	rec := postV1Query(t, s, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	// 3 left rows of category a, each matching all 6 right rows.
	if _, sum := ndjsonResponse(t, rec.Body.Bytes()); sum.Count != 18 {
		t.Errorf("join count = %d, want 18", sum.Count)
	}
}
