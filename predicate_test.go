package stark_test

import (
	"strings"
	"testing"

	"stark"
	"stark/internal/plan"
)

// TestParsePredicateMatchesNamedMethods pins the one name→predicate
// mapping: every named kind parses back from its PredKind.String
// spelling in any case, and filtering with the result plans exactly
// like the method of that name (same fingerprint, same rows).
func TestParsePredicateMatchesNamedMethods(t *testing.T) {
	ctx := stark.NewContext(2)
	ds := stark.Parallelize(ctx, apiSpatialTuples(t, 500), 4)
	q := stark.NewSTObject(stark.NewEnvelope(100, 100, 600, 600).ToPolygon())
	methods := map[plan.PredKind]*stark.Dataset[int]{
		plan.Intersects:     ds.Intersects(q),
		plan.Contains:       ds.Contains(q),
		plan.ContainedBy:    ds.ContainedBy(q),
		plan.CoveredBy:      ds.CoveredBy(q),
		plan.WithinDistance: ds.WithinDistance(q, 25, nil),
	}
	for kind, want := range methods {
		for _, name := range []string{kind.String(), strings.ToUpper(kind.String())} {
			p, err := stark.ParsePredicate(name, 25)
			if err != nil || p.Kind() != kind {
				t.Fatalf("ParsePredicate(%q) = %v, %v", name, p.Kind(), err)
			}
			got := ds.Filter(p, q)
			gfp, err1 := got.Fingerprint()
			wfp, err2 := want.Fingerprint()
			if err1 != nil || err2 != nil || gfp != wfp {
				t.Errorf("%s: fingerprint %q (%v) vs method %q (%v)", name, gfp, err1, wfp, err2)
			}
			gn, err1 := got.Count()
			wn, err2 := want.Count()
			if err1 != nil || err2 != nil || gn != wn {
				t.Errorf("%s: count %d (%v) vs method %d (%v)", name, gn, err1, wn, err2)
			}
		}
	}
	if pred, expand := (stark.NamedPredicate{}).Predicate(); pred == nil || expand != 0 {
		t.Error("zero NamedPredicate is not intersects")
	}
	for name, want := range map[string]float64{"contains": 0, "withindistance": 25} {
		p, _ := stark.ParsePredicate(name, 25)
		if _, expand := p.Predicate(); expand != want {
			t.Errorf("%s expansion = %v, want %v", name, expand, want)
		}
	}
	for _, bad := range []string{"", "custom", "touches", "nope"} {
		if _, err := stark.ParsePredicate(bad, 1); err == nil {
			t.Errorf("ParsePredicate(%q) accepted", bad)
		}
	}
}
