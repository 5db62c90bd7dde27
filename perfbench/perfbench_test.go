package main

import (
	"testing"
)

func tinyConfig(t *testing.T, workload string, trace bool) config {
	return config{workload: workload, seed: 3, seconds: 0.3, trace: trace, out: t.TempDir(), sizes: tinySizes()}
}

// Every workload, measured and traced, emits every named metric with
// its unit and checks out against the oracle.
func TestTinyRunsEmitEveryMetric(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := run(tinyConfig(t, w, trace), false)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v), want unit %s", w, trace, d.name, m, ok, d.unit)
				}
			}
		}
	}
}

// A wrong count planted in the benchmark's own response checker (the
// program is untouched) is caught as a failed operation and makes the
// command exit non-zero.
func TestPlantedWrongCountFails(t *testing.T) {
	for _, w := range workloads {
		cfg := tinyConfig(t, w, false)
		res, err := run(cfg, true)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: planted wrong count not caught: correct=%v failed=%d", w, res.Correct, res.Failed)
		}
		if code := report(cfg, true); code == 0 {
			t.Errorf("%s: exit code 0 with a planted wrong count", w)
		}
	}
}

// The oracle agrees with itself across its two paths: the grid count
// and the brute-force count over a model of the same events.
func TestOracleGridMatchesBruteForce(t *testing.T) {
	s := newSkew(stream(5, 1))
	events := s.events(4000, 0)
	g := newGrid(events)
	m := newModel(events)
	qg := newQueryGen(stream(5, 2), g, "events")
	for i := 0; i < 200; i++ {
		q := qg.next()
		if got := m.count(q); got != q.want {
			t.Fatalf("query %d: grid %d, brute force %d", i, q.want, got)
		}
	}
}
