package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := quantile([]float64{1, 2, 3, 4}, 0.5); got != 2.5 {
		t.Errorf("even-length median = %v, want 2.5", got)
	}
	if got := quantile(xs, 1); got != 5 {
		t.Errorf("max = %v, want 5", got)
	}
	if xs[0] != 5 {
		t.Error("quantile sorted its input in place")
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

// A percentile is reported only with at least ten samples beyond it.
func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		pct  float64
		want bool
	}{
		{999, 99, false},
		{1000, 99, true},
		{99, 90, false},
		{100, 90, true},
		{19, 50, false},
		{20, 50, true},
	}
	for _, c := range cases {
		if got := tailOK(c.n, c.pct); got != c.want {
			t.Errorf("tailOK(%d, p%v) = %v, want %v", c.n, c.pct, got, c.want)
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	if got := tailPercentile(xs, 99); math.Abs(got-989.01) > 1e-9 {
		t.Errorf("p99 of 0..999 = %v, want 989.01", got)
	}
	if got := tailPercentile(xs[:999], 99); !math.IsNaN(got) {
		t.Errorf("p99 of 999 samples = %v, want NaN", got)
	}
}

func at(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }

func iv(a, b int) interval { return interval{at(a), at(b)} }

func TestUnionCountsOverlapOnce(t *testing.T) {
	cases := []struct {
		name string
		ivs  []interval
		want time.Duration
	}{
		{"empty", nil, 0},
		{"disjoint", []interval{iv(0, 10), iv(20, 25)}, 15 * time.Millisecond},
		{"overlapping", []interval{iv(0, 10), iv(5, 15)}, 15 * time.Millisecond},
		{"nested", []interval{iv(0, 30), iv(5, 10), iv(12, 20)}, 30 * time.Millisecond},
		{"touching", []interval{iv(10, 20), iv(0, 10)}, 20 * time.Millisecond},
		{"unsorted chain", []interval{iv(40, 50), iv(0, 10), iv(8, 41)}, 50 * time.Millisecond},
	}
	for _, c := range cases {
		if got := unionDuration(c.ivs); got != c.want {
			t.Errorf("%s: union = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	parent := iv(0, 100)
	// Two concurrent children covering 10..40 and 30..60 cover 50 ms.
	if got := selfTime(parent, []interval{iv(10, 40), iv(30, 60)}); got != 50*time.Millisecond {
		t.Errorf("self = %v, want 50ms", got)
	}
	// Children reaching outside the parent are clipped to it.
	if got := selfTime(parent, []interval{iv(-20, 10), iv(90, 130)}); got != 80*time.Millisecond {
		t.Errorf("clipped self = %v, want 80ms", got)
	}
	if got := selfTime(parent, nil); got != 100*time.Millisecond {
		t.Errorf("childless self = %v, want 100ms", got)
	}
}

func TestRatioBase(t *testing.T) {
	if got := ratio(3, 4); got != 0.75 {
		t.Errorf("ratio(3,4) = %v", got)
	}
	if got := ratio(3, 0); got != 0 {
		t.Errorf("ratio over an empty base = %v, want 0", got)
	}
}

// Two clients cycling through types of median 100 and 300 ms finish two
// operations per 400 ms; a slow outlier of a type does not move it.
func TestClosedLoopRate(t *testing.T) {
	got := closedLoopRate(2, map[string][]float64{
		"short": {100, 100, 900},
		"long":  {300, 290, 310},
	})
	if want := 4.0 / 400; math.Abs(got-want) > 1e-12 {
		t.Errorf("closedLoopRate = %v, want %v", got, want)
	}
	if got := closedLoopRate(2, nil); got != 0 {
		t.Errorf("closedLoopRate with no operations = %v, want 0", got)
	}
}

// Replayed spans land on the parent's clock, and the self times of all
// spans add up to the traced end-to-end time.
func TestReplaySelfTimesAccountForRoots(t *testing.T) {
	tr := &tracer{}
	root := tr.add(span{Name: "op", Start: at(1000), End: at(1100)})
	rp := &replay{spans: []span{
		{Name: "parse", Start: at(5000), End: at(5020), Replay: true},
		{Name: "codec", Start: at(5020), End: at(5050), Replay: true, Attrs: map[string]float64{"bytes": 7}},
	}}
	if rp.total() != 50*time.Millisecond {
		t.Fatalf("replay total = %v", rp.total())
	}
	tr.attachReplay(root, at(1000), rp)
	stats, roots := tr.layers()
	if roots != 100*time.Millisecond {
		t.Errorf("roots = %v, want 100ms", roots)
	}
	if got := stats["op"].Self; got != 50*time.Millisecond {
		t.Errorf("op self = %v, want 50ms", got)
	}
	if got := stats["codec"].Attrs["bytes"]; got != 7 {
		t.Errorf("codec bytes = %v", got)
	}
	var sum time.Duration
	for _, st := range stats {
		sum += st.Self
	}
	if sum != roots {
		t.Errorf("self times sum to %v, traced end-to-end is %v", sum, roots)
	}
	if s := tr.spans[1]; !s.Start.Equal(at(1000)) || s.Parent != root {
		t.Errorf("replayed span not rebased onto its parent: %+v", s)
	}
}

// A replayed layer slower than the request it replays still leaves the
// self times summing to the end-to-end time: the overflow is clipped.
func TestSelfTimesClipReplayOverflow(t *testing.T) {
	tr := &tracer{}
	root := tr.add(span{Name: "op", Start: at(0), End: at(10)})
	tr.attachReplay(root, at(0), &replay{spans: []span{
		{Name: "parse", Start: at(100), End: at(106), Replay: true},
		{Name: "codec", Start: at(106), End: at(115), Replay: true},
	}})
	stats, roots := tr.layers()
	var sum time.Duration
	for _, st := range stats {
		sum += st.Self
	}
	if sum != roots || roots != 10*time.Millisecond {
		t.Errorf("self times sum to %v, roots %v; want both 10ms", sum, roots)
	}
	if got := stats["codec"].Self; got != 4*time.Millisecond {
		t.Errorf("codec self = %v, want the 4ms inside the request", got)
	}
	if got := stats["codec"].Total; got != 9*time.Millisecond {
		t.Errorf("codec total = %v, want its own 9ms", got)
	}
}

func TestParseProm(t *testing.T) {
	text := `# HELP tcompd_cache_hits_total Result-cache hits.
# TYPE tcompd_cache_hits_total counter
tcompd_cache_hits_total 12
tcompd_flow_stage_seconds_sum{stage="atpg"} 1.5
tcompd_flow_stage_seconds_sum{stage="race"} 0.25
tcompd_flow_stage_seconds_count{stage="race"} 3
`
	p, err := parseProm(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if got := p.sum("tcompd_cache_hits_total"); got != 12 {
		t.Errorf("hits = %v", got)
	}
	if got := p.sum("tcompd_flow_stage_seconds_sum"); got != 1.75 {
		t.Errorf("stage sum = %v, want 1.75", got)
	}
	before := promSample{"tcompd_cache_hits_total": 2}
	if got := delta(before, p, "tcompd_cache_hits_total"); got != 10 {
		t.Errorf("delta = %v, want 10", got)
	}
}

// The metric lists the program prints must be the ones BENCHMARK.json
// declares, in name and unit.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
		Workload []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, defs []metricDef, got []struct{ Name, Unit string }) {
		if len(defs) != len(got) {
			t.Errorf("%s: program has %d metrics, BENCHMARK.json %d", kind, len(defs), len(got))
			return
		}
		for i, d := range defs {
			if d.name != got[i].Name || d.unit != got[i].Unit {
				t.Errorf("%s[%d]: program %s %s, BENCHMARK.json %s %s", kind, i, d.name, d.unit, got[i].Name, got[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
	for _, w := range spec.Workload {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s has no implementation", w.Name)
		}
	}
}
