package main

// The client side: HTTP calls against the server on loopback, the
// response checks, /metrics scraping, and the sample statistics.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

func newHTTPClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: conns, DisableCompression: true}}
}

// post sends one request and drains the whole body into buf; the
// returned duration spans send to last byte read.
func post(c *http.Client, url, ctype string, body []byte, buf *bytes.Buffer) (int, time.Duration, error) {
	start := time.Now()
	resp, err := c.Post(url, ctype, bytes.NewReader(body))
	if err != nil {
		return 0, time.Since(start), err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, time.Since(start), err
}

// summary is the trailing line of an NDJSON query response.
type summary struct {
	Count int64  `json:"count"`
	Cache string `json:"cache"`
}

// splitNDJSON returns the feature lines (with their newlines) and the
// decoded summary line of a query response.
func splitNDJSON(body []byte) (rows []byte, nrows int64, sum summary, err error) {
	trimmed := bytes.TrimRight(body, "\n")
	cut := bytes.LastIndexByte(trimmed, '\n') + 1
	var wrapped struct {
		Summary *summary `json:"summary"`
	}
	if err := json.Unmarshal(trimmed[cut:], &wrapped); err != nil || wrapped.Summary == nil {
		return nil, 0, sum, fmt.Errorf("response has no summary line")
	}
	rows = body[:cut]
	return rows, int64(bytes.Count(rows, []byte{'\n'})), *wrapped.Summary, nil
}

// checker compares responses against the oracle. plant, when set,
// makes the first comparison expect one row too many — the benchmark's
// own tests use it to prove a wrong count fails the run.
type checker struct {
	plant atomic.Bool
}

func (c *checker) expect(want int64) int64 {
	if c.plant.CompareAndSwap(true, false) {
		return want + 1
	}
	return want
}

// checkQuery verifies a query response: summary count and row count
// both equal the oracle's.
func (c *checker) checkQuery(body []byte, want int64) (summary, []byte, error) {
	rows, n, sum, err := splitNDJSON(body)
	if err != nil {
		return sum, nil, err
	}
	want = c.expect(want)
	if sum.Count != want || n != want {
		return sum, nil, fmt.Errorf("count mismatch: summary %d, rows %d, oracle %d", sum.Count, n, want)
	}
	return sum, rows, nil
}

// feature is the part of a result row the reader checks.
type feature struct {
	Geometry struct {
		Coordinates []float64 `json:"coordinates"`
	} `json:"geometry"`
	Properties struct {
		ID       int64  `json:"id"`
		Category string `json:"category"`
		Time     int64  `json:"time"`
	} `json:"properties"`
}

// checkRows verifies that every row satisfies the query predicate —
// the check for reads of live data, whose exact count depends on
// which generation the read pinned.
func checkRows(rows []byte, q *query) error {
	sc := bufio.NewScanner(bytes.NewReader(rows))
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		var f feature
		if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
			return fmt.Errorf("bad row: %v", err)
		}
		if len(f.Geometry.Coordinates) != 2 {
			return fmt.Errorf("row %d: not a point", f.Properties.ID)
		}
		e := event{ID: f.Properties.ID, Cat: f.Properties.Category, T: f.Properties.Time,
			X: f.Geometry.Coordinates[0], Y: f.Geometry.Coordinates[1]}
		if !q.match(&e) {
			return fmt.Errorf("row %d does not satisfy the query", e.ID)
		}
	}
	return sc.Err()
}

// ---- /metrics ----

// scrape reads the Prometheus text exposition into series -> value.
func scrape(c *http.Client, base string) (map[string]float64, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	return parseExposition(resp.Body)
}

func parseExposition(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics line %q: %v", line, err)
		}
		out[line[:sp]] = v
	}
	return out, sc.Err()
}

// histQuantile estimates quantile q of a histogram from the bucket
// deltas between two scrapes, interpolating inside the bucket as
// Prometheus does. series is the metric name plus the label prefix,
// e.g. `stark_http_request_duration_seconds_bucket{route="/api/v1/query"`.
func histQuantile(before, after map[string]float64, series string, q float64) float64 {
	type bucket struct{ le, n float64 }
	var bs []bucket
	for k, v := range after {
		if !strings.HasPrefix(k, series) {
			continue
		}
		i := strings.Index(k, `le="`)
		if i < 0 {
			continue
		}
		leStr := k[i+4 : strings.IndexByte(k[i+4:], '"')+i+4]
		le := math.Inf(1)
		if leStr != "+Inf" {
			le, _ = strconv.ParseFloat(leStr, 64)
		}
		bs = append(bs, bucket{le, v - before[k]})
	}
	if len(bs) == 0 {
		return 0
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	total := bs[len(bs)-1].n
	if total <= 0 {
		return 0
	}
	rank := q * total
	prevLe, prevN := 0.0, 0.0
	for _, b := range bs {
		if b.n >= rank {
			if math.IsInf(b.le, 1) {
				return prevLe
			}
			if b.n == prevN {
				return b.le
			}
			return prevLe + (b.le-prevLe)*(rank-prevN)/(b.n-prevN)
		}
		prevLe, prevN = b.le, b.n
	}
	return prevLe
}

// ---- sample statistics ----

// quantile returns the q-quantile of xs (nearest rank on a sorted
// copy).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// p99 estimates the 99th percentile. With at least three blocks of
// 1000 samples it is the median of the blocks' p99s (each leaving ten
// samples beyond it), so one stall of the machine moves one block, not
// the figure; smaller samples take the plain p99.
func p99(xs []float64) float64 {
	const block = 1000
	if len(xs) < 3*block {
		return quantile(xs, 0.99)
	}
	var ps []float64
	for i := 0; i+block <= len(xs); i += block {
		ps = append(ps, quantile(xs[i:i+block], 0.99))
	}
	return median(ps)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
