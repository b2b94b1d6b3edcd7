package obs

import (
	"strings"
	"testing"
)

// TestExpositionGolden pins the exact Prometheus text exposition for a
// representative registry: HELP/TYPE headers, label quoting, cumulative
// histogram buckets with the +Inf terminator, and _sum/_count samples.
// This is the wire contract a scraper parses; renderings must not
// drift.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	var reqs Counter
	reqs.Add(3)
	var inFlight Gauge
	inFlight.Set(2)
	byPath := &LabelCounter{}
	byPath.Add("/v1/compress", 5)
	byPath.Add(`/weird"path\`, 1)
	lat := NewHistogramVec(0.01, 0.1, 1)
	lat.Observe("/v1/compress", 0.005)
	lat.Observe("/v1/compress", 0.05)
	lat.Observe("/v1/compress", 7)

	r.Counter("tcompd_errors_total", "Requests answered non-2xx.", &reqs)
	r.Gauge("tcompd_in_flight", "Requests currently being served.", &inFlight)
	r.CounterVec("tcompd_requests_total", "Completed requests per endpoint.", "path", byPath)
	r.GaugeFunc("tcompd_cache_hit_ratio", "Hits over lookups.", func() float64 { return 0.25 })
	r.HistogramVec("tcompd_request_duration_seconds", "Request latency.", "path", lat)

	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	const want = `# HELP tcompd_errors_total Requests answered non-2xx.
# TYPE tcompd_errors_total counter
tcompd_errors_total 3
# HELP tcompd_in_flight Requests currently being served.
# TYPE tcompd_in_flight gauge
tcompd_in_flight 2
# HELP tcompd_requests_total Completed requests per endpoint.
# TYPE tcompd_requests_total counter
tcompd_requests_total{path="/v1/compress"} 5
tcompd_requests_total{path="/weird\"path\\"} 1
# HELP tcompd_cache_hit_ratio Hits over lookups.
# TYPE tcompd_cache_hit_ratio gauge
tcompd_cache_hit_ratio 0.25
# HELP tcompd_request_duration_seconds Request latency.
# TYPE tcompd_request_duration_seconds histogram
tcompd_request_duration_seconds_bucket{path="/v1/compress",le="0.01"} 1
tcompd_request_duration_seconds_bucket{path="/v1/compress",le="0.1"} 2
tcompd_request_duration_seconds_bucket{path="/v1/compress",le="1"} 2
tcompd_request_duration_seconds_bucket{path="/v1/compress",le="+Inf"} 3
tcompd_request_duration_seconds_sum{path="/v1/compress"} 7.055
tcompd_request_duration_seconds_count{path="/v1/compress"} 3
`
	if got := b.String(); got != want {
		t.Fatalf("exposition drifted.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestRegistryRejectsBadNames: registration is construction-time, so
// malformed or duplicate names must panic, not silently corrupt the
// exposition.
func TestRegistryRejectsBadNames(t *testing.T) {
	r := NewRegistry()
	var c Counter
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("bad name", func() { r.Counter("bad name", "", &c) })
	r.Counter("dup_total", "", &c)
	mustPanic("duplicate", func() { r.Counter("dup_total", "", &c) })
	mustPanic("bad label", func() { r.CounterVec("ok_total", "", "bad label", &LabelCounter{}) })
}
