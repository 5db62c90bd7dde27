package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"stark/internal/engine"
	"stark/internal/geom"
	"stark/internal/workload"
)

func testServer(t *testing.T, n int) *Server {
	t.Helper()
	s, _ := testService(t, n, Options{})
	return s
}

func postJSON(t *testing.T, s *Server, path string, body interface{}) (*httptest.ResponseRecorder, map[string]interface{}) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(data))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	var out map[string]interface{}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("%s: bad JSON response %q: %v", path, rec.Body.String(), err)
	}
	return rec, out
}

func getJSON(t *testing.T, s *Server, path string) map[string]interface{} {
	t.Helper()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: status = %d: %s", path, rec.Code, rec.Body.String())
	}
	var out map[string]interface{}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("GET %s: bad JSON response %q: %v", path, rec.Body.String(), err)
	}
	return out
}

// v1Filter addresses a filter to the default dataset.
func v1Filter(q QueryRequest) ServiceQueryRequest {
	return ServiceQueryRequest{QueryRequest: q}
}

func TestIndexPage(t *testing.T) {
	s := testServer(t, 10)
	req := httptest.NewRequest(http.MethodGet, "/", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	page := rec.Body.String()
	if !strings.Contains(page, "STARK") {
		t.Error("index page missing title")
	}
	// The UI talks to the one query surface only.
	for _, want := range []string{"'/api/v1/query'", "'/api/v1/explain'", "'/api/datasets/default'"} {
		if !strings.Contains(page, want) {
			t.Errorf("index page does not call %s", want)
		}
	}
	for _, gone := range legacyRoutes {
		if strings.Contains(page, "'"+gone+"'") {
			t.Errorf("index page still calls %s", gone)
		}
	}
	// Unknown paths 404.
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/nope", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("unknown path status = %d", rec.Code)
	}
}

func TestQueryEndpointSpatioTemporal(t *testing.T) {
	s := testServer(t, 300)
	rec := postV1Query(t, s, v1Filter(QueryRequest{
		Predicate: "containedby",
		WKT:       "POLYGON ((0 0, 100 0, 100 100, 0 100, 0 0))",
		HasTime:   true,
		Begin:     0,
		End:       500,
	}))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d body=%s", rec.Code, rec.Body.String())
	}
	feats, sum := ndjsonResponse(t, rec.Body.Bytes())
	if count := sum.Count; count == 0 || count == 300 {
		t.Errorf("count = %d, want a proper temporal subset", count)
	}
	for _, f := range feats {
		props := f["properties"].(map[string]interface{})
		if props["time"].(float64) > 500 {
			t.Fatal("temporal window violated")
		}
	}
}

func TestQueryEndpointWithinDistance(t *testing.T) {
	s := testServer(t, 200)
	rec := postV1Query(t, s, v1Filter(QueryRequest{
		Predicate: "withindistance",
		WKT:       "POINT (50 50)",
		HasTime:   true,
		Begin:     0, End: 1000,
		Distance: 30,
	}))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if _, sum := ndjsonResponse(t, rec.Body.Bytes()); sum.Count == 0 {
		t.Error("no results within 30 of center")
	}
	// Missing distance errors.
	rec = postV1Query(t, s, v1Filter(QueryRequest{
		Predicate: "withindistance", WKT: "POINT (0 0)",
	}))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("missing distance status = %d", rec.Code)
	}
}

func TestQueryEndpointErrors(t *testing.T) {
	s := testServer(t, 10)
	rec := postV1Query(t, s, v1Filter(QueryRequest{Predicate: "nope", WKT: "POINT (0 0)"}))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("bad predicate status = %d", rec.Code)
	}
	rec = postV1Query(t, s, v1Filter(QueryRequest{WKT: "BAD"}))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("bad wkt status = %d", rec.Code)
	}
	rec = postV1Query(t, s, v1Filter(QueryRequest{WKT: "POINT (0 0)", HasTime: true, Begin: 9, End: 1}))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("inverted interval status = %d", rec.Code)
	}
	// GET not allowed.
	rec2 := httptest.NewRecorder()
	s.ServeHTTP(rec2, httptest.NewRequest(http.MethodGet, "/api/v1/query", nil))
	if rec2.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET status = %d", rec2.Code)
	}
	// Malformed JSON.
	rec3 := httptest.NewRecorder()
	s.ServeHTTP(rec3, httptest.NewRequest(http.MethodPost, "/api/v1/query", strings.NewReader("{")))
	if rec3.Code != http.StatusBadRequest {
		t.Errorf("bad json status = %d", rec3.Code)
	}
}

func TestKNNEndpoint(t *testing.T) {
	s := testServer(t, 200)
	rec := postV1Query(t, s, ServiceQueryRequest{KNN: &KNNRequest{WKT: "POINT (50 50)", K: 5}})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("X-Stark-Cache"); got != "bypass" {
		t.Errorf("X-Stark-Cache = %q, want bypass", got)
	}
	feats, sum := ndjsonResponse(t, rec.Body.Bytes())
	if len(feats) != 5 || sum.Count != 5 || sum.Cache != "bypass" {
		t.Fatalf("features = %d, summary = %+v", len(feats), sum)
	}
	// Distances present and ascending.
	prev := -1.0
	for _, f := range feats {
		d := f["properties"].(map[string]interface{})["distance"].(float64)
		if d < prev {
			t.Fatal("distances not ascending")
		}
		prev = d
	}
	rec = postV1Query(t, s, ServiceQueryRequest{KNN: &KNNRequest{WKT: "POINT (0 0)", K: 0}})
	if rec.Code != http.StatusBadRequest {
		t.Errorf("k=0 status = %d", rec.Code)
	}
	rec = postV1Query(t, s, ServiceQueryRequest{KNN: &KNNRequest{WKT: "JUNK", K: 1}})
	if rec.Code != http.StatusBadRequest {
		t.Errorf("bad wkt status = %d", rec.Code)
	}
}

func TestClusterEndpoint(t *testing.T) {
	s := testServer(t, 300)
	rec := postV1Query(t, s, ServiceQueryRequest{Cluster: &ClusterRequest{Eps: 5, MinPts: 4}})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d body=%s", rec.Code, rec.Body.String())
	}
	feats, sum := ndjsonResponse(t, rec.Body.Bytes())
	if sum.Clusters == nil {
		t.Error("summary missing the cluster count")
	}
	if len(feats) != 300 || sum.Count != 300 {
		t.Errorf("features = %d, summary count = %d", len(feats), sum.Count)
	}
	props := feats[0]["properties"].(map[string]interface{})
	if _, ok := props["cluster"]; !ok {
		t.Error("missing cluster label")
	}
	rec = postV1Query(t, s, ServiceQueryRequest{Cluster: &ClusterRequest{Eps: -1, MinPts: 4}})
	if rec.Code != http.StatusBadRequest {
		t.Errorf("bad eps status = %d", rec.Code)
	}
}

func TestStatsEndpoint(t *testing.T) {
	s := testServer(t, 50)
	out := getJSON(t, s, "/api/datasets/default")
	if events := out["dataset"].(map[string]interface{})["events"]; events != 50.0 {
		t.Errorf("events = %v", events)
	}
	if p := getJSON(t, s, "/api/service")["parallelism"]; p != 4.0 {
		t.Errorf("parallelism = %v, want 4", p)
	}
}

func TestNewRejectsBadWKT(t *testing.T) {
	events := []workload.Event{{ID: 1, WKT: "NOT WKT"}}
	s := NewService(engine.NewContext(2), Options{})
	if err := s.RegisterEvents(DatasetSpec{Name: DefaultDataset}, events); err == nil {
		t.Error("bad events must fail")
	}
}

func TestGeometryJSONShapes(t *testing.T) {
	pt := geometryJSON(geom.NewPoint(1, 2))
	if pt["type"] != "Point" {
		t.Errorf("point type = %v", pt["type"])
	}
	ls := geometryJSON(geom.MustLineString(geom.NewPoint(0, 0), geom.NewPoint(1, 1)))
	if ls["type"] != "LineString" {
		t.Errorf("ls type = %v", ls["type"])
	}
	poly := geometryJSON(geom.MustPolygon(
		geom.NewPoint(0, 0), geom.NewPoint(1, 0), geom.NewPoint(1, 1)))
	if poly["type"] != "Polygon" {
		t.Errorf("poly type = %v", poly["type"])
	}
	rings := poly["coordinates"].([][][]float64)
	if len(rings) != 1 || len(rings[0]) != 4 {
		t.Errorf("rings = %v", rings)
	}
	mp := geometryJSON(geom.NewMultiPoint([]geom.Point{{X: 0, Y: 0}}))
	if mp["type"] != "MultiPoint" {
		t.Errorf("mp type = %v", mp["type"])
	}
}

// TestQueryEndpointStreamsValidGeoJSON pins the streaming encoder:
// every line must be a well-formed GeoJSON feature and the trailing
// count must match the number of streamed features, including the
// empty-result edge (a summary line and nothing else).
func TestQueryEndpointStreamsValidGeoJSON(t *testing.T) {
	s := testServer(t, 150)
	rec := postV1Query(t, s, v1Filter(QueryRequest{
		Predicate: "intersects",
		WKT:       "POLYGON ((0 0, 100 0, 100 100, 0 100, 0 0))",
	}))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	feats, sum := ndjsonResponse(t, rec.Body.Bytes())
	if int(sum.Count) != len(feats) {
		t.Errorf("count %d != %d streamed features", sum.Count, len(feats))
	}
	for _, f := range feats {
		if f["type"] != "Feature" || f["geometry"] == nil {
			t.Fatalf("not a GeoJSON feature: %v", f)
		}
	}

	// Empty result: still valid NDJSON with count 0.
	rec = postV1Query(t, s, v1Filter(QueryRequest{
		Predicate: "intersects",
		WKT:       "POLYGON ((900 900, 910 900, 910 910, 900 910, 900 900))",
	}))
	if rec.Code != http.StatusOK {
		t.Fatalf("empty-result status = %d", rec.Code)
	}
	if feats, sum := ndjsonResponse(t, rec.Body.Bytes()); sum.Count != 0 || len(feats) != 0 {
		t.Errorf("empty result rendered as %q", rec.Body.String())
	}
}

func TestExplainEndpoint(t *testing.T) {
	s := testServer(t, 300)
	rec, out := postJSON(t, s, "/api/v1/explain", v1Filter(QueryRequest{
		Predicate: "intersects",
		WKT:       "POLYGON ((10 10, 40 10, 40 40, 10 40, 10 10))",
		HasTime:   true,
		Begin:     0,
		End:       1000,
	}))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d body=%s", rec.Code, rec.Body.String())
	}
	text, ok := out["text"].(string)
	if !ok || !strings.Contains(text, "Filter[intersects") {
		t.Errorf("explain text = %q", text)
	}
	for _, want := range []string{"index=", "pruned ", "est_rows=", "act_rows="} {
		if !strings.Contains(text, want) {
			t.Errorf("explain text missing %q:\n%s", want, text)
		}
	}
	node, ok := out["plan"].(map[string]interface{})
	if !ok || node["op"] != "Filter" {
		t.Errorf("plan node = %v", out["plan"])
	}

	// GET is rejected; bad WKT maps to a 400.
	rec2 := httptest.NewRecorder()
	s.ServeHTTP(rec2, httptest.NewRequest(http.MethodGet, "/api/v1/explain", nil))
	if rec2.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET status = %d", rec2.Code)
	}
	rec3, _ := postJSON(t, s, "/api/v1/explain", v1Filter(QueryRequest{WKT: "NOT WKT"}))
	if rec3.Code != http.StatusBadRequest {
		t.Errorf("bad WKT status = %d", rec3.Code)
	}
}

func TestStatsComputedOnce(t *testing.T) {
	s := testServer(t, 200)
	launched0 := s.ctx.Metrics().Snapshot().TasksLaunched
	for i := 0; i < 3; i++ {
		out := getJSON(t, s, "/api/datasets/default")
		if events := out["dataset"].(map[string]interface{})["events"]; events != 200.0 {
			t.Errorf("events = %v", events)
		}
		if _, ok := out["planner"].(map[string]interface{}); !ok {
			t.Error("dataset response missing planner summary")
		}
	}
	// Serving the summary launches no tasks: the count and planner
	// statistics were computed at registration, not per request.
	if launched := s.ctx.Metrics().Snapshot().TasksLaunched; launched != launched0 {
		t.Errorf("dataset summary requests launched %d tasks", launched-launched0)
	}
}
