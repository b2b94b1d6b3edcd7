package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	tcomp "repro"
	"repro/internal/iscasgen"
	"repro/internal/scenario"
	"repro/internal/testset"
)

// The serve-sync mix. The shares below are assumptions: no recorded
// traffic sets them. Every share is fixed by position in each client's
// request list rather than drawn at random, so the mix inside any
// stretch of a run is the same from run to run.
const (
	serveClients = 2
	serveListLen = 1 << 15
	// Every repeatEvery-th request repeats one of the client's last 64
	// requests byte for byte (same body, codec and parameters), so the
	// daemon's result cache answers it. Every other request carries a
	// seed parameter of its own: the codecs here ignore it, but it is
	// part of the cache key, so new requests always miss.
	repeatEvery = 4
	// Every largeEvery-th new request is a full-size Table-1 set; the
	// rest are ATPG-shaped windows of 0.3 to 1.2 kbit.
	largeEvery = 40
	// Every binaryEvery-th new request sends the binary TSET form.
	binaryEvery = 5
	// The first measureWindow requests of each list define rate_pct, so it
	// does not depend on how far a run gets. They hold two full rounds of
	// the full-size sets against the codecs (7 × 6 large requests each),
	// and the rate is weighted by bits, so those rates dominate. Every
	// client runs at least this far, however slow the host, and
	// rss_mb_mean is sampled over exactly this work: every new request
	// adds a result-cache entry, so memory sampled over a fixed time would
	// grow with throughput. Over one round the mean still moved by ±10%
	// between runs of a seed; over two, by ±5%.
	measureWindow = 2 * largeEvery * 7 * 6 * repeatEvery / (repeatEvery - 1)
	// allocSample caps the containers per codec kept for the quiescent
	// allocation count after a traced run.
	allocSample = 8
)

// serveSmall are the circuits whose ATPG sets the small bodies are cut
// from; serveLarge are the full-size Table-1 sets (71 kbit to 2.07
// Mbit).
var (
	serveSmallStuckAt   = []string{"s208", "s298", "s344", "s386", "s400", "s444", "s526"}
	serveSmallPathDelay = []string{"s208", "s298", "s400", "s444", "s526"}
	serveLarge          = []string{"s5378", "s9234", "s35932", "s15850", "s13207", "s38584", "s38417"}
)

type serveReq struct {
	name   string // "small", or the full-size set's circuit
	set    *tcomp.TestSet
	body   []byte
	binary bool
	codec  string
	seed   int64
}

type serveBench struct {
	d     *daemon
	lists [][]serveReq
}

func init() {
	b := &serveBench{}
	workloads["serve-sync"] = workload{name: "serve-sync", setup: b.setup, run: b.run}
}

func encodeSet(ts *tcomp.TestSet, binary bool) ([]byte, error) {
	var buf bytes.Buffer
	var err error
	if binary {
		err = ts.WriteBinary(&buf)
	} else {
		err = ts.Write(&buf)
	}
	return buf.Bytes(), err
}

// setup generates both clients' request lists, starts tcompd with its
// default configuration and sends one small and one large request
// through it.
func (b *serveBench) setup(cfg config) (func(), error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	var pool []*tcomp.TestSet
	for _, name := range serveSmallStuckAt {
		sc, err := scenario.StuckAt(name, cfg.seed)
		if err != nil {
			return nil, err
		}
		pool = append(pool, sc.Set)
	}
	for _, name := range serveSmallPathDelay {
		sc, err := scenario.PathDelay(name, cfg.seed)
		if err != nil {
			return nil, err
		}
		if sc.Set.NumPatterns() > 0 {
			pool = append(pool, sc.Set)
		}
	}
	type bodies struct {
		name         string
		set          *tcomp.TestSet
		text, binary []byte
	}
	var large []bodies
	for _, name := range serveLarge {
		m, err := iscasgen.Find(name, iscasgen.StuckAt)
		if err != nil {
			return nil, err
		}
		ts, err := iscasgen.Generate(m, iscasgen.GenOptions{Seed: cfg.seed})
		if err != nil {
			return nil, err
		}
		text, err := encodeSet(ts, false)
		if err != nil {
			return nil, err
		}
		bin, err := encodeSet(ts, true)
		if err != nil {
			return nil, err
		}
		large = append(large, bodies{name, ts, text, bin})
	}

	b.lists = make([][]serveReq, serveClients)
	largeOffset, codecOffset := rng.Intn(len(large)), rng.Intn(len(serveCodecs))
	for c := range b.lists {
		list := make([]serveReq, serveListLen)
		fresh, nLarge := 0, 0
		for i := range list {
			if i%repeatEvery == repeatEvery-1 {
				back := 64
				if i < back {
					back = i
				}
				list[i] = list[i-1-rng.Intn(back)]
				continue
			}
			rq := serveReq{binary: fresh%binaryEvery == binaryEvery-1, seed: int64(c+1)<<32 | int64(fresh)}
			if fresh%largeEvery == largeEvery/2 {
				l := large[(nLarge+largeOffset+c)%len(large)]
				rq.name, rq.set = l.name, l.set
				rq.codec = serveCodecs[(nLarge+codecOffset)%len(serveCodecs)]
				rq.body = l.text
				if rq.binary {
					rq.body = l.binary
				}
				nLarge++
			} else {
				rq.name, rq.set = "small", window(pool[rng.Intn(len(pool))], rng)
				rq.codec = serveCodecs[rng.Intn(len(serveCodecs))]
				body, err := encodeSet(rq.set, rq.binary)
				if err != nil {
					return nil, err
				}
				rq.body = body
			}
			list[i] = rq
			fresh++
		}
		b.lists[c] = list
	}

	d, err := startDaemon(cfg.tcompd, filepath.Join(cfg.out, "serve"))
	if err != nil {
		return nil, err
	}
	b.d = d
	cl := &tcomp.Client{BaseURL: d.url, HTTPClient: d.http}
	for _, rq := range []serveReq{
		{name: "small", set: pool[0], codec: "golomb", seed: -1},
		{name: large[0].name, set: large[0].set, body: large[0].text, codec: "fdr", seed: -2},
	} {
		if rq.body == nil {
			if rq.body, err = encodeSet(rq.set, false); err != nil {
				d.stop()
				return nil, err
			}
		}
		var res clientResult
		if !res.roundTrip(context.Background(), cl, rq, nil, false) {
			d.stop()
			return nil, fmt.Errorf("warm-up request failed: %v", res.fails)
		}
	}
	return d.stop, nil
}

// window cuts a run of consecutive patterns holding 300 to 1200 bits out
// of an ATPG set.
func window(ts *tcomp.TestSet, rng *rand.Rand) *tcomp.TestSet {
	lo := (300 + ts.Width - 1) / ts.Width
	hi := 1200 / ts.Width
	n := lo + rng.Intn(hi-lo+1)
	if n > ts.NumPatterns() {
		n = ts.NumPatterns()
	}
	start := rng.Intn(ts.NumPatterns() - n + 1)
	out := tcomp.NewTestSet(ts.Width)
	for _, p := range ts.Patterns[start : start+n] {
		out.Add(p)
	}
	return out
}

// clientResult is what one client goroutine measured.
type clientResult struct {
	attempted  int // requests sent
	failed     int // requests that failed or whose output was wrong
	fails      []string
	latency    map[string][]float64 // ms by request type, see latencies
	done       []time.Time          // completion time of every request
	overheadMs []float64            // traced: latency minus the replayed layer time
	bits       float64              // original bits of completed compressions
	// Original and compressed bits of the list's first measureWindow
	// requests.
	rateOrig, rateComp float64
	containers         map[string][][]byte
}

func (c *clientResult) fail(format string, args ...any) {
	c.failed++
	if len(c.fails) < 20 {
		c.fails = append(c.fails, fmt.Sprintf(format, args...))
	}
}

func (c *clientResult) observe(typ string, d time.Duration) {
	if c.latency == nil {
		c.latency = map[string][]float64{}
	}
	c.latency[typ] = append(c.latency[typ], ms(d))
	c.done = append(c.done, time.Now())
}

// roundTrip compresses rq through the daemon, decompresses the returned
// container through the daemon, and checks that every specified bit
// survived. With a tracer it replays both requests through the layers
// the handlers call.
func (c *clientResult) roundTrip(ctx context.Context, cl *tcomp.Client, rq serveReq, t *tracer, countRate bool) bool {
	c.attempted++
	var container bytes.Buffer
	t0 := time.Now()
	st, err := cl.Compress(ctx, rq.codec, bytes.NewReader(rq.body), &container, tcomp.WithSeed(rq.seed))
	t1 := time.Now()
	if err != nil {
		c.fail("compress %s: %v", rq.codec, err)
		return false
	}
	if st.OriginalBits != rq.set.TotalBits() {
		c.fail("compress %s: daemon reports %d original bits, sent %d", rq.codec, st.OriginalBits, rq.set.TotalBits())
		return false
	}
	typ := rq.codec + "/" + rq.name
	c.observe("compress/"+typ, t1.Sub(t0))
	c.bits += float64(st.OriginalBits)
	if countRate {
		c.rateOrig += float64(st.OriginalBits)
		c.rateComp += float64(st.CompressedBits)
	}

	c.attempted++
	var text bytes.Buffer
	t2 := time.Now()
	err = cl.Decompress(ctx, bytes.NewReader(container.Bytes()), &text)
	t3 := time.Now()
	if err != nil {
		c.fail("decompress %s: %v", rq.codec, err)
		return false
	}
	c.observe("decompress/"+typ, t3.Sub(t2))
	textLen := text.Len()
	dec, err := testset.Read(&text)
	if err != nil {
		c.fail("decompress %s: unreadable patterns: %v", rq.codec, err)
		return false
	}
	if !tcomp.VerifyLossless(rq.set, dec) {
		c.fail("decompress %s: specified bits lost", rq.codec)
		return false
	}
	if t == nil {
		return true
	}
	if err := c.replayCompress(ctx, t, rq, st.CacheHit, container.Bytes(), t0, t1); err != nil {
		c.fail("replay compress %s: %v", rq.codec, err)
		return false
	}
	if err := c.replayDecompress(t, rq, container.Bytes(), textLen, t2, t3); err != nil {
		c.fail("replay decompress %s: %v", rq.codec, err)
		return false
	}
	return true
}

// replayCompress parses the body and, unless the cache answered,
// compresses it into a v3 container as the /v1/compress handler does,
// and checks the bytes match the daemon's.
func (c *clientResult) replayCompress(ctx context.Context, t *tracer, rq serveReq, hit bool, want []byte, t0, t1 time.Time) error {
	root := t.add(span{Name: "serve.compress", Start: t0, End: t1})
	rp := &replay{}
	var ts *tcomp.TestSet
	var err error
	if rq.binary {
		_, err = rp.timed("testset.read_binary", map[string]float64{"bytes": float64(len(rq.body))}, func() error {
			ts, err = testset.ReadBinary(bytes.NewReader(rq.body))
			return err
		})
	} else {
		_, err = rp.timed("testset.scan", map[string]float64{"bytes": float64(len(rq.body))}, func() error {
			ts, err = testset.Read(bytes.NewReader(rq.body))
			return err
		})
	}
	if err != nil {
		return err
	}
	if !hit {
		var buf bytes.Buffer
		_, err = rp.timed("codec."+rq.codec+".compress", map[string]float64{"bytes": float64(ts.TotalBits()) / 8}, func() error {
			sw, err := tcomp.NewStreamWriter(ctx, &buf, rq.codec, ts.Width, tcomp.WithSeed(rq.seed))
			if err != nil {
				return err
			}
			if err := sw.WriteSet(ts); err != nil {
				_ = sw.Close() // the WriteSet error is the one to report
				return err
			}
			return sw.Close()
		})
		if err != nil {
			return err
		}
		if !bytes.Equal(buf.Bytes(), want) {
			return fmt.Errorf("in-process container differs from the daemon's")
		}
		if c.containers == nil {
			c.containers = map[string][][]byte{}
		}
		if len(c.containers[rq.codec]) < allocSample {
			c.containers[rq.codec] = append(c.containers[rq.codec], want)
		}
	}
	t.attachReplay(root, t0, rp)
	c.overheadMs = append(c.overheadMs, ms(t1.Sub(t0)-rp.total()))
	return nil
}

// replayDecompress decodes the container and writes the patterns as
// text, as the /v1/decompress handler does.
func (c *clientResult) replayDecompress(t *tracer, rq serveReq, container []byte, textLen int, t2, t3 time.Time) error {
	root := t.add(span{Name: "serve.decompress", Start: t2, End: t3})
	rp := &replay{}
	var ts *tcomp.TestSet
	_, err := rp.timed("codec."+rq.codec+".decompress", map[string]float64{"bytes": float64(rq.set.TotalBits()) / 8}, func() error {
		var err error
		ts, err = decodeStream(container)
		return err
	})
	if err != nil {
		return err
	}
	_, err = rp.timed("testset.write", map[string]float64{"bytes": float64(textLen)}, func() error {
		pw, err := testset.NewPatternWriter(io.Discard, ts.Width)
		if err != nil {
			return err
		}
		for _, p := range ts.Patterns {
			if err := pw.WritePattern(p); err != nil {
				return err
			}
		}
		return pw.Close()
	})
	if err != nil {
		return err
	}
	t.attachReplay(root, t2, rp)
	c.overheadMs = append(c.overheadMs, ms(t3.Sub(t2)-rp.total()))
	return nil
}

func decodeStream(container []byte) (*tcomp.TestSet, error) {
	sr, err := tcomp.NewStreamReader(bytes.NewReader(container))
	if err != nil {
		return nil, err
	}
	return sr.ReadAll()
}

// phase runs both clients until the deadline and until each has
// completed at least minNext requests of its list, each continuing its
// list at next[c]. A client calls inWindow when it completes the last
// request of the measure window. phase returns the clients' results and
// the phase's start.
func (b *serveBench) phase(ctx context.Context, next []int, budget time.Duration, minNext int, inWindow func(), t *tracer) ([]*clientResult, time.Time) {
	cl := &tcomp.Client{BaseURL: b.d.url, HTTPClient: b.d.http}
	results := make([]*clientResult, serveClients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(budget)
	for c := 0; c < serveClients; c++ {
		results[c] = &clientResult{}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			res := results[c]
			for next[c] < minNext || time.Now().Before(deadline) {
				i := next[c]
				res.roundTrip(ctx, cl, b.lists[c][i%serveListLen], t, i < measureWindow)
				next[c]++
				if next[c] == measureWindow {
					inWindow()
				}
			}
		}(c)
	}
	wg.Wait()
	return results, start
}

// windowRate is the median number of requests completed per whole
// second of the phase. The host's speed wanders by tens of percent for
// seconds at a time; a median over one-second windows is not moved by a
// slow stretch that a whole-run average would absorb.
func windowRate(results []*clientResult, start time.Time) float64 {
	var counts []float64
	for _, res := range results {
		for _, t := range res.done {
			w := int(t.Sub(start) / time.Second)
			for len(counts) <= w {
				counts = append(counts, 0)
			}
			counts[w]++
		}
	}
	if len(counts) > 1 {
		counts = counts[:len(counts)-1] // the last window is partial
	}
	return median(counts)
}

func (b *serveBench) run(cfg config, r *report) error {
	ctx := context.Background()
	before, err := b.d.scrape(ctx)
	if err != nil {
		return err
	}
	// The daemon's memory is sampled until both clients have completed
	// the measure window.
	var measured sync.WaitGroup
	measured.Add(serveClients)
	type rssResult struct {
		avg, peak float64
		err       error
	}
	rssDone := make(chan rssResult, 1)
	rss := sampleRSS(b.d.cmd.Process.Pid)
	go func() {
		measured.Wait()
		avg, peak, err := rss.Stop()
		rssDone <- rssResult{avg, peak, err}
	}()
	next := make([]int, serveClients)
	budget := cfg.seconds
	minNext := measureWindow
	if cfg.trace {
		budget /= 2
		minNext = 0 // the traced phase completes the window
	}
	untraced, start := b.phase(ctx, next, budget, minNext, measured.Done, nil)
	wall := time.Since(start)
	all := untraced
	var traced []*clientResult
	if cfg.trace {
		traced, _ = b.phase(ctx, next, budget, measureWindow, measured.Done, r.spans)
		all = append(append([]*clientResult(nil), untraced...), traced...)
	}
	mem := <-rssDone
	if mem.err != nil {
		return mem.err
	}
	rssMean, peak := mem.avg, mem.peak
	after, err := b.d.scrape(ctx)
	if err != nil {
		return err
	}

	var rateOrig, rateComp float64
	for _, res := range all {
		r.attempted += res.attempted
		r.failed += res.failed
		r.failures = append(r.failures, res.fails...)
		rateOrig += res.rateOrig
		rateComp += res.rateComp
	}
	lat, requests, bits := latencies(untraced)
	var cms, dms []float64
	for typ, xs := range lat {
		if strings.HasPrefix(typ, "compress/") {
			cms = append(cms, xs...)
		} else {
			dms = append(dms, xs...)
		}
	}
	hits := delta(before, after, "tcompd_cache_hits_total")
	hitRatio := ratio(hits, hits+delta(before, after, "tcompd_cache_misses_total"))
	r.e2e["rss_mb_mean"] = rssMean
	r.e2e["ops_per_s"] = windowRate(untraced, start)
	r.e2e["latency_ms_p50"] = typedLatency(lat)
	r.e2e["rate_pct"] = 100 * ratio(rateOrig-rateComp, rateOrig)
	r.named("serve.req_per_s", r.e2e["ops_per_s"], "1/s")
	r.named("serve.req_per_s_mean", requests/wall.Seconds(), "1/s")
	r.named("serve.bits_per_s", bits/wall.Seconds(), "bit/s")
	r.named("serve.compress_ms_p50", median(cms), "ms")
	r.named("serve.compress_ms_p99", tailPercentile(cms, 99), "ms")
	r.named("serve.decompress_ms_p50", median(dms), "ms")
	r.named("serve.decompress_ms_p99", tailPercentile(dms, 99), "ms")
	r.named("serve.requests", requests, "count")
	r.named("serve.rate_pct", r.e2e["rate_pct"], "%")
	r.named("serve.cache_hit_ratio", hitRatio, "ratio")
	r.named("serve.large_body_share", b.largeBodyShare(), "ratio")
	r.named("peak_rss_mb", peak, "MB")
	if !cfg.trace {
		return nil
	}

	stats, _ := r.spans.layers()
	mbps := func(name string) float64 {
		st := stats[name]
		if st == nil {
			return 0
		}
		return ratio(st.Attrs["bytes"]/1e6, st.Total.Seconds())
	}
	r.layer["testset.scan_mb_per_s"] = mbps("testset.scan")
	r.layer["testset.read_binary_mb_per_s"] = mbps("testset.read_binary")
	r.layer["testset.write_mb_per_s"] = mbps("testset.write")
	for _, c := range serveCodecs {
		r.layer["codec."+c+".compress_mb_per_s"] = mbps("codec." + c + ".compress")
		r.layer["codec."+c+".decompress_mb_per_s"] = mbps("codec." + c + ".decompress")
	}
	var overhead []float64
	samples := map[string][][]byte{}
	for _, res := range traced {
		overhead = append(overhead, res.overheadMs...)
		for c, list := range res.containers {
			samples[c] = append(samples[c], list...)
		}
	}
	allocs, err := decompressAllocsPerPattern(samples)
	if err != nil {
		r.fail("allocation count: %v", err)
	}
	tracedLat, tracedReqs, _ := latencies(traced)
	r.layer["codec.decompress_allocs_per_pattern"] = allocs
	r.layer["serve.overhead_ms_p50"] = median(overhead)
	r.layer["serve.cache_hit_ratio"] = hitRatio
	r.layer["serve.gc_per_kreq"] = 1000 * ratio(delta(before, after, "tcompd_gc_cycles_total"), requests+tracedReqs)
	r.layer["serve.errors"] = delta(before, after, "tcompd_errors_total")
	r.layer["trace.overhead_pct"] = 100 * ratio(typedLatency(tracedLat)-typedLatency(lat), typedLatency(lat))
	return nil
}

// largeBodyShare is the share of the measure window's request body bytes
// that the full-size sets carry. The mix's shares are assumptions, not
// taken from recorded traffic; this states the one that sets the split
// between per-request and per-byte cost as a figure that can be checked
// against real traffic.
func (b *serveBench) largeBodyShare() float64 {
	var large, all float64
	for _, list := range b.lists {
		for _, rq := range list[:measureWindow] {
			all += float64(len(rq.body))
			if rq.name != "small" {
				large += float64(len(rq.body))
			}
		}
	}
	return ratio(large, all)
}

// latencies groups the clients' request latencies by type: compress or
// decompress, codec, and the full-size set's circuit or "small". Within
// a type the requests do the same work, so each type's median is steady
// even where the whole mix's median would fall between two types. It
// also returns the number of requests and the original bits compressed.
func latencies(results []*clientResult) (map[string][]float64, float64, float64) {
	lat := map[string][]float64{}
	var requests, bits float64
	for _, res := range results {
		for typ, xs := range res.latency {
			lat[typ] = append(lat[typ], xs...)
			requests += float64(len(xs))
		}
		bits += res.bits
	}
	return lat, requests, bits
}

// decompressAllocsPerPattern decodes the sampled containers once more
// with no other work running, so the process-wide allocation counter
// sees only the decoder: heap allocations per decoded pattern.
func decompressAllocsPerPattern(samples map[string][][]byte) (float64, error) {
	var m0, m1 runtime.MemStats
	var allocs uint64
	patterns := 0
	for _, list := range samples {
		for _, container := range list {
			runtime.ReadMemStats(&m0)
			ts, err := decodeStream(container)
			runtime.ReadMemStats(&m1)
			if err != nil {
				return 0, err
			}
			allocs += m1.Mallocs - m0.Mallocs
			patterns += ts.NumPatterns()
		}
	}
	return ratio(float64(allocs), float64(patterns)), nil
}
