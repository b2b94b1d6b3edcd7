package tcomp_test

// End-to-end distributed-tracing tests: a stub OTLP/HTTP collector
// receives the daemon's exported spans, and the assertions walk the
// span tree by trace ID across real client→daemon hops. This is the
// executable form of the tracing acceptance criteria: one remote
// compress yields a single tree from the client's traceparent down to
// the codec encode, and an async job keeps exporting under the
// submitting request's trace even after a daemon restart replays it
// from the journal.

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	tcomp "repro"
	"repro/internal/artifact"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/testset"
)

// collectedSpan is the slice of the OTLP JSON span shape the tree
// assertions need.
type collectedSpan struct {
	TraceID string `json:"traceId"`
	SpanID  string `json:"spanId"`
	Parent  string `json:"parentSpanId"`
	Name    string `json:"name"`
}

// traceCollector is an in-process stand-in for an OTLP/HTTP collector:
// it decodes every POSTed ExportTraceServiceRequest and accumulates the
// spans for inspection.
type traceCollector struct {
	srv   *httptest.Server
	mu    sync.Mutex
	spans []collectedSpan
}

func newTraceCollector(t *testing.T) *traceCollector {
	t.Helper()
	c := &traceCollector{}
	c.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			ResourceSpans []struct {
				ScopeSpans []struct {
					Spans []collectedSpan `json:"spans"`
				} `json:"scopeSpans"`
			} `json:"resourceSpans"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		c.mu.Lock()
		for _, rs := range req.ResourceSpans {
			for _, ss := range rs.ScopeSpans {
				c.spans = append(c.spans, ss.Spans...)
			}
		}
		c.mu.Unlock()
		w.WriteHeader(http.StatusOK)
	}))
	t.Cleanup(c.srv.Close)
	return c
}

// byTrace returns every collected span of one trace.
func (c *traceCollector) byTrace(traceID string) []collectedSpan {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []collectedSpan
	for _, s := range c.spans {
		if s.TraceID == traceID {
			out = append(out, s)
		}
	}
	return out
}

// waitFor polls until pred is satisfied by the spans of traceID or the
// deadline passes (the exporter batches asynchronously, so spans arrive
// a flush interval after the work finishes).
func (c *traceCollector) waitFor(t *testing.T, traceID string, pred func([]collectedSpan) bool) []collectedSpan {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		spans := c.byTrace(traceID)
		if pred(spans) {
			return spans
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace %s: condition not met before deadline; collected spans: %+v", traceID, spans)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// hasSpans is a waitFor condition: every named span has been collected.
func hasSpans(names ...string) func([]collectedSpan) bool {
	return func(spans []collectedSpan) bool {
		for _, name := range names {
			found := false
			for _, s := range spans {
				found = found || s.Name == name
			}
			if !found {
				return false
			}
		}
		return true
	}
}

// newTestTracer builds a tracer exporting to the stub collector with a
// flush interval short enough for test-scale polling.
func newTestTracer(c *traceCollector) *obs.Tracer {
	return obs.NewTracer(obs.NewOTLPExporter(obs.OTLPConfig{
		Endpoint:      c.srv.URL,
		FlushInterval: 10 * time.Millisecond,
	}), 1)
}

func patternsBuffer(t *testing.T, seed int64) *bytes.Buffer {
	t.Helper()
	ts := testset.Random(16, 25, 0.4, rand.New(rand.NewSource(seed)))
	var in bytes.Buffer
	if err := ts.Write(&in); err != nil {
		t.Fatal(err)
	}
	return &in
}

// spanByName returns the first span with the given name, or fails.
func spanByName(t *testing.T, spans []collectedSpan, name string) collectedSpan {
	t.Helper()
	for _, s := range spans {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("no span named %q in %+v", name, spans)
	return collectedSpan{}
}

// chainToRoot walks parent links from a span up to the span whose
// parent is rootParent (the ID minted outside the daemon) and returns
// the names along the way, leaf first. It fails on a broken link.
func chainToRoot(t *testing.T, spans []collectedSpan, from collectedSpan, rootParent string) []string {
	t.Helper()
	byID := make(map[string]collectedSpan, len(spans))
	for _, s := range spans {
		byID[s.SpanID] = s
	}
	names := []string{from.Name}
	cur := from
	for cur.Parent != rootParent {
		next, ok := byID[cur.Parent]
		if !ok {
			t.Fatalf("span %q has parent %s with no collected span (chain so far %v)", cur.Name, cur.Parent, names)
		}
		cur = next
		names = append(names, cur.Name)
		if len(names) > len(spans) {
			t.Fatalf("parent cycle walking from %q: %v", from.Name, names)
		}
	}
	return names
}

// TestTraceSyncCompressSpansFormTree is the synchronous acceptance hop:
// one remote compress under a caller-supplied traceparent must export a
// single tree — client span → serve handler root → pipeline worker →
// codec encode — all under the caller's trace ID.
func TestTraceSyncCompressSpansFormTree(t *testing.T) {
	collector := newTraceCollector(t)
	tracer := newTestTracer(collector)
	s, err := serve.New(serve.Config{Workers: 2, Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	c := tcomp.NewClient(hs.URL)

	const (
		traceA     = "4bf92f3577b34da6a3ce929d0e0e4736"
		clientSpan = "00f067aa0ba902b7"
	)
	ctx, err := tcomp.WithTraceparent(context.Background(),
		"00-"+traceA+"-"+clientSpan+"-01")
	if err != nil {
		t.Fatal(err)
	}
	var cont bytes.Buffer
	if _, err := c.Compress(ctx, "golomb", patternsBuffer(t, 1), &cont); err != nil {
		t.Fatal(err)
	}
	hs.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	shCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := tracer.Shutdown(shCtx); err != nil {
		t.Fatal(err)
	}

	spans := collector.byTrace(traceA)
	if len(spans) == 0 {
		t.Fatal("no spans exported for the request's trace")
	}
	root := spanByName(t, spans, "POST /v1/compress")
	if root.Parent != clientSpan {
		t.Fatalf("serve root span parent = %s, want the client's span %s", root.Parent, clientSpan)
	}
	// The codec-encode span must hang off the serve root through the
	// pipeline worker: compress golomb → chunk 0 → compress → root.
	leaf := spanByName(t, spans, "compress golomb")
	chain := chainToRoot(t, spans, leaf, clientSpan)
	want := []string{"compress golomb", "chunk 0", "compress", "POST /v1/compress"}
	if len(chain) != len(want) {
		t.Fatalf("span chain %v, want %v", chain, want)
	}
	for i := range want {
		if chain[i] != want[i] {
			t.Fatalf("span chain %v, want %v", chain, want)
		}
	}
	// Every span of the trace must link into the same tree (no orphans
	// pointing at span IDs that were never exported).
	for _, sp := range spans {
		chainToRoot(t, spans, sp, clientSpan)
	}
}

// TestTraceAsyncJobJoinsTraceAcrossRestart is the asynchronous
// acceptance hop: a job submitted under a traceparent exports its
// worker span under the submitting trace, and — because the trace
// context is journalled with the job record — a re-run after a daemon
// restart exports under the same trace ID, to a collector the original
// submitting process never knew about.
func TestTraceAsyncJobJoinsTraceAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	jobDir := filepath.Join(dir, "jobs")
	newDurableDaemon := func(col *traceCollector) (*serve.Server, *httptest.Server, *tcomp.Client, *obs.Tracer) {
		store, err := artifact.NewDiskStore(filepath.Join(dir, "artifacts"))
		if err != nil {
			t.Fatal(err)
		}
		tracer := newTestTracer(col)
		s, err := serve.New(serve.Config{
			Workers:  2,
			JobStore: store,
			JobDir:   jobDir,
			Tracer:   tracer,
		})
		if err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewServer(s.Handler())
		c := tcomp.NewClient(hs.URL)
		c.PollInterval = 10 * time.Millisecond
		return s, hs, c, tracer
	}

	const (
		traceB     = "0af7651916cd43dd8448eb211c80319c"
		clientSpan = "b7ad6b7169203331"
	)
	collector1 := newTraceCollector(t)
	s1, hs1, c1, tracer1 := newDurableDaemon(collector1)

	ctx, err := tcomp.WithTraceparent(context.Background(),
		"00-"+traceB+"-"+clientSpan+"-01")
	if err != nil {
		t.Fatal(err)
	}
	j, err := c1.SubmitCompressJob(ctx, "golomb", patternsBuffer(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	if j.TraceParent == "" {
		t.Fatal("submitted job record carries no traceparent")
	}
	waitCtx, cancelWait := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancelWait()
	j, err = c1.WaitJob(waitCtx, j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if j.State != tcomp.JobDone {
		t.Fatalf("job state %s (%s), want done", j.State, j.Error)
	}
	// The job's worker span must export under the submitting trace,
	// parented inside it (its direct parent is the submission request's
	// serve root span, which in turn is a child of the client span).
	// The handler span ends only after its response is written, so it
	// can reach the collector after the job span: wait for both.
	spans := collector1.waitFor(t, traceB, hasSpans("job compress", "POST /v1/jobs"))
	jobSpan := spanByName(t, spans, "job compress")
	submitRoot := spanByName(t, spans, "POST /v1/jobs")
	if jobSpan.Parent != submitRoot.SpanID {
		t.Fatalf("job span parent = %s, want the submit request's span %s", jobSpan.Parent, submitRoot.SpanID)
	}
	if submitRoot.Parent != clientSpan {
		t.Fatalf("submit root parent = %s, want the client's span %s", submitRoot.Parent, clientSpan)
	}

	// Stop the first daemon and rewrite the journalled record back to
	// pending — the restart-recovery shape of a job interrupted mid-run.
	hs1.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	shCtx1, cancel1 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel1()
	if err := tracer1.Shutdown(shCtx1); err != nil {
		t.Fatal(err)
	}
	journalFile := filepath.Join(jobDir, j.ID+".json")
	raw, err := os.ReadFile(journalFile)
	if err != nil {
		t.Fatal(err)
	}
	var rec map[string]any
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatal(err)
	}
	if rec["traceparent"] == nil || rec["traceparent"] == "" {
		t.Fatal("journalled job record lost its traceparent")
	}
	rec["state"] = "pending"
	raw, err = json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(journalFile, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// A fresh daemon over the same store and journal re-runs the job; a
	// fresh collector proves the spans come from the journalled context,
	// not any in-memory leftovers.
	collector2 := newTraceCollector(t)
	s2, hs2, c2, tracer2 := newDurableDaemon(collector2)
	j2, err := c2.WaitJob(waitCtx, j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if j2.State != tcomp.JobDone {
		t.Fatalf("re-run job state %s (%s), want done", j2.State, j2.Error)
	}
	respans := collector2.waitFor(t, traceB, hasSpans("job compress"))
	reJob := spanByName(t, respans, "job compress")
	if reJob.TraceID != traceB {
		t.Fatalf("re-run job trace = %s, want %s", reJob.TraceID, traceB)
	}
	if reJob.SpanID == jobSpan.SpanID {
		t.Fatal("re-run job span reused the original span ID; want a fresh span in the same trace")
	}

	hs2.Close()
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	shCtx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := tracer2.Shutdown(shCtx2); err != nil {
		t.Fatal(err)
	}
}
