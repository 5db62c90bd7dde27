package stark_test

import (
	"testing"

	"stark"
)

// TestTraceOfFlushedActions checks kNN and DBSCAN, which flush the
// chain instead of compiling it: each records one phase with no plan
// tree, and reading the trace never compiles the chain after the fact
// (a second read shows the same single phase).
func TestTraceOfFlushedActions(t *testing.T) {
	ctx := stark.NewContext(2)
	window := stark.NewSTObject(stark.NewEnvelope(0, 0, 800, 800).ToPolygon())
	ref := stark.NewSTObject(stark.NewPoint(400, 400))
	for name, run := range map[string]func(*stark.Dataset[int]) (int, error){
		"knn": func(d *stark.Dataset[int]) (int, error) {
			nbrs, err := d.KNN(ref, 3)
			return len(nbrs), err
		},
		"cluster": func(d *stark.Dataset[int]) (int, error) {
			recs, _, err := d.Cluster(stark.ClusterOptions{Eps: 20, MinPts: 3})
			return len(recs), err
		},
	} {
		d := stark.Parallelize(ctx, apiSpatialTuples(t, 300), 4).Intersects(window)
		rows, err := run(d)
		if err != nil || rows == 0 {
			t.Fatalf("%s: %d rows, %v", name, rows, err)
		}
		for i := 0; i < 2; i++ {
			tr := d.Trace()
			if len(tr.Children) != 1 || tr.Children[0].Op != name || len(tr.Children[0].Children) != 0 {
				t.Fatalf("%s trace read %d: %s", name, i, tr.Render())
			}
			if tr.Rows != int64(rows) {
				t.Errorf("%s trace rows = %d, want %d", name, tr.Rows, rows)
			}
		}
	}
}
