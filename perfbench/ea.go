package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"syscall"
	"time"

	tcomp "repro"
	"repro/internal/blockcode"
	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/huffman"
	"repro/internal/iscasgen"
	"repro/internal/pipeline"
)

// eaSets are the paper sets ea-paper compresses: stuck-at and
// path-delay rows from 8.5 kbit to 119 kbit whose 12-bit blocks span a
// few hundred to about two thousand distinct values, so the cost of
// covering and of the Huffman build both show.
var eaSets = []struct {
	name string
	kind iscasgen.Kind
}{
	{"s838", iscasgen.StuckAt},
	{"c3540", iscasgen.StuckAt},
	{"c2670", iscasgen.StuckAt},
	{"s9234", iscasgen.StuckAt},
	{"s298", iscasgen.PathDelay},
	{"s444", iscasgen.PathDelay},
	{"s641", iscasgen.PathDelay},
}

// coverReps repeats the single-call layer timings (one covering, one
// Huffman build) so each measures well above the clock's resolution.
const coverReps = 20

type eaSet struct {
	name string
	ts   *tcomp.TestSet
}

type eaBench struct {
	sets []eaSet
}

// eaWarmSeed is the seed of the warm-up's set and of its EA run. How
// many generations an EA run takes depends on both; fixing them keeps
// the warm-up's cost, and with it setup_s, the same for every --seed.
const eaWarmSeed = 1

func init() {
	b := &eaBench{}
	workloads["ea-paper"] = workload{name: "ea-paper", setup: b.setup, run: b.run}
}

// passSeed is the EA seed of one pass. Every pass draws a new seed, so
// a run averages over more EA runs: how many generations a run takes to
// converge depends on its seed, and one seed's luck would otherwise set
// the whole run's throughput.
func passSeed(seed int64, pass int) int64 { return pipeline.Seed(seed, pass) }

func eaOptions(seed int64) []tcomp.Option {
	return []tcomp.Option{tcomp.WithSeed(seed), tcomp.WithWorkers(runtime.NumCPU())}
}

// setup generates the sets. It then compresses the smallest set, as
// generated at eaWarmSeed, once, so the heap and page tables are warm
// before timing starts.
func (b *eaBench) setup(cfg config) (func(), error) {
	b.sets = b.sets[:0]
	for _, s := range eaSets {
		ts, err := eaGenerate(s.name, s.kind, cfg.seed)
		if err != nil {
			return nil, err
		}
		b.sets = append(b.sets, eaSet{name: s.name + "/" + s.kind.String(), ts: ts})
	}
	warm, err := eaGenerate(eaSets[0].name, eaSets[0].kind, eaWarmSeed)
	if err != nil {
		return nil, err
	}
	codec, err := tcomp.Lookup("ea")
	if err != nil {
		return nil, err
	}
	if _, err := codec.Compress(context.Background(), warm, eaOptions(eaWarmSeed)...); err != nil {
		return nil, err
	}
	return func() {}, nil
}

func eaGenerate(name string, kind iscasgen.Kind, seed int64) (*tcomp.TestSet, error) {
	m, err := iscasgen.Find(name, kind)
	if err != nil {
		return nil, err
	}
	return iscasgen.Generate(m, iscasgen.GenOptions{Seed: seed})
}

// eaTotals accumulates the traced replay's layer measurements.
type eaTotals struct {
	passes                   int
	evals, gens, lastImprove int
	coreWall, coreCPU        time.Duration
	mallocs                  uint64
	coverWeighted            float64 // Σ evals × per-call covering µs
	buildWeighted            float64 // Σ evals × per-call Huffman-build µs
	distinct                 int
	dedup, encode            time.Duration
}

// run compresses every set per pass, in whole passes: a partial pass
// would weigh the sets differently from run to run. It starts another
// pass only while more than half a pass's time is left, so a run ends
// within half a pass of the measurement time.
func (b *eaBench) run(cfg config, r *report) error {
	ctx := context.Background()
	codec, err := tcomp.Lookup("ea")
	if err != nil {
		return err
	}
	var rates []float64       // pass 0, one per set
	var first *tcomp.Artifact // the first set's pass-0 artifact
	lat := map[string][]float64{}
	var bits float64
	var busy time.Duration // untraced compress time
	var traced time.Duration
	var tot eaTotals
	rss := sampleRSS(0)
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start)+time.Since(start)/time.Duration(2*pass) < cfg.seconds; pass++ {
		seed := passSeed(cfg.seed, pass)
		for _, s := range b.sets {
			r.attempted++
			t0 := time.Now()
			art, err := codec.Compress(ctx, s.ts, eaOptions(seed)...)
			d := time.Since(t0)
			if err != nil {
				r.fail("%s: compress: %v", s.name, err)
				continue
			}
			busy += d
			lat[s.name] = append(lat[s.name], ms(d))
			bits += float64(s.ts.TotalBits())
			if !b.check(r, s, art) {
				continue
			}
			if pass == 0 {
				rates = append(rates, art.RatePercent())
				if first == nil {
					first = art
				}
			}
			if cfg.trace {
				d, err := b.replay(ctx, seed, r, s, art, &tot)
				if err != nil {
					r.fail("%s: traced replay: %v", s.name, err)
					continue
				}
				traced += d
			}
		}
		tot.passes++
	}
	rssMean, peak, err := rss.Stop()
	if err != nil {
		return err
	}
	if first != nil {
		b.checkRepeat(ctx, codec, r, first, passSeed(cfg.seed, 0))
	}
	// A typical pass compresses every set in its median time. The pass
	// seed decides how many generations each EA run takes, and medians
	// keep one long-converging pass from setting the run's figure.
	var passMs, passBits float64
	for _, s := range b.sets {
		passMs += median(lat[s.name])
		passBits += float64(s.ts.TotalBits())
	}
	r.e2e["rss_mb_mean"] = rssMean
	r.e2e["ops_per_s"] = float64(len(b.sets)) / (passMs / 1000)
	r.e2e["latency_ms_p50"] = typedLatency(lat)
	r.e2e["rate_pct"] = mean(rates)
	r.named("ea.bits_per_s", passBits/(passMs/1000), "bit/s")
	r.named("ea.bits_per_s_mean", bits/busy.Seconds(), "bit/s")
	r.named("ea.rate_pct", r.e2e["rate_pct"], "%")
	r.named("ea.sets_per_s", r.e2e["ops_per_s"], "1/s")
	r.named("ea.passes", float64(tot.passes), "count")
	r.named("peak_rss_mb", peak, "MB")
	if cfg.trace {
		b.layerMetrics(r, &tot, busy, traced)
	}
	return nil
}

// check decompresses the artifact and verifies it keeps every specified
// bit.
func (b *eaBench) check(r *report, s eaSet, art *tcomp.Artifact) bool {
	dec, err := tcomp.Decompress(art)
	if err != nil {
		r.fail("%s: decompress: %v", s.name, err)
		return false
	}
	if !tcomp.VerifyLossless(s.ts, dec) {
		r.fail("%s: decompressed set lost specified bits", s.name)
		return false
	}
	return true
}

// checkRepeat compresses the first set once more at pass 0's seed, after
// the measurement, and checks the result equals pass 0's byte for byte:
// the EA is deterministic at a fixed seed, so rate_pct is too.
func (b *eaBench) checkRepeat(ctx context.Context, codec tcomp.Codec, r *report, first *tcomp.Artifact, seed int64) {
	s := b.sets[0]
	r.attempted++
	again, err := codec.Compress(ctx, s.ts, eaOptions(seed)...)
	if err != nil {
		r.fail("%s: repeat compress: %v", s.name, err)
		return
	}
	if again.RatePercent() != first.RatePercent() || !bytes.Equal(again.Payload, first.Payload) {
		r.fail("%s: rate %.6f%% on repeating pass 0's seed differs from pass 0's %.6f%%", s.name, again.RatePercent(), first.RatePercent())
	}
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// replay runs what Lookup("ea").Compress runs, one layer call at a
// time under spans: block partition and dedup, the EA (core), then one
// covering and one Huffman build of the winning MV set, the final
// encode and the container parameter blob. The dedup, covering, build
// and encode calls repeat work core already did inside its span; they
// are there to time those layers on their own. It returns the root
// span's duration and checks the replay reaches the codec's rate.
func (b *eaBench) replay(ctx context.Context, seed int64, r *report, s eaSet, art *tcomp.Artifact, tot *eaTotals) (time.Duration, error) {
	t := r.spans
	root := t.begin(0, "ea.compress")
	err := b.replayLayers(ctx, seed, t, root, s, art, tot)
	t.end(root, map[string]float64{"bits": float64(s.ts.TotalBits())})
	return spanDur(t, root), err
}

func (b *eaBench) replayLayers(ctx context.Context, seed int64, t *tracer, root int, s eaSet, art *tcomp.Artifact, tot *eaTotals) error {
	p := core.DefaultParams(seed)
	p.Workers = runtime.NumCPU()

	id := t.begin(root, "blockcode.dedup")
	blocks := blockcode.Partition(s.ts, p.K)
	multiset := blockcode.Dedup(blocks)
	t.end(id, nil)
	tot.dedup += spanDur(t, id)
	tot.distinct += len(multiset.Blocks)

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	id = t.begin(root, "core.compress")
	res, err := core.CompressCtx(ctx, s.ts, p)
	t.end(id, nil)
	cpu := cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	if err != nil {
		return err
	}
	if res.Final.RatePercent() != art.RatePercent() {
		return fmt.Errorf("core rate %.6f%% differs from the codec's %.6f%%", res.Final.RatePercent(), art.RatePercent())
	}
	tot.coreWall += spanDur(t, id)
	tot.coreCPU += cpu
	tot.mallocs += m1.Mallocs - m0.Mallocs
	evals := 0
	for _, run := range res.Runs {
		evals += run.Evals
		tot.gens += run.Generations
		tot.lastImprove += lastImprovement(run)
	}
	tot.evals += evals

	var cov *blockcode.Covering
	id = t.begin(root, "blockcode.cover")
	for i := 0; i < coverReps; i++ {
		cov = res.Final.Set.CoverMultiset(multiset)
	}
	t.end(id, map[string]float64{"calls": coverReps})
	tot.coverWeighted += float64(evals) * us(spanDur(t, id)) / coverReps

	id = t.begin(root, "huffman.build")
	for i := 0; i < coverReps && err == nil; i++ {
		_, err = huffman.Build(cov.Freqs)
	}
	t.end(id, map[string]float64{"calls": coverReps})
	if err != nil {
		return err
	}
	tot.buildWeighted += float64(evals) * us(spanDur(t, id)) / coverReps

	id = t.begin(root, "blockcode.encode")
	_, err = blockcode.Encode(blocks, res.Final)
	t.end(id, nil)
	if err != nil {
		return err
	}
	tot.encode += spanDur(t, id)

	id = t.begin(root, "container.params")
	_, err = container.EncodeBlockParams(res.Final.Set, res.Final.Code)
	t.end(id, nil)
	return err
}

// lastImprovement is the generation in which a run last raised its best
// fitness.
func lastImprovement(run core.RunOutcome) int {
	if len(run.History) == 0 {
		return 0
	}
	last := run.History[0]
	for _, h := range run.History[1:] {
		if h.Best > last.Best {
			last = h
		}
	}
	return last.Generation
}

func (b *eaBench) layerMetrics(r *report, tot *eaTotals, untraced, traced time.Duration) {
	passes := float64(tot.passes)
	evals := float64(tot.evals)
	eval := us(tot.coreCPU) / evals
	cover := tot.coverWeighted / evals
	build := tot.buildWeighted / evals
	r.layer["core.compress_s"] = tot.coreWall.Seconds() / passes
	r.layer["ea.evals"] = evals / passes
	r.layer["ea.generations"] = float64(tot.gens) / passes
	r.layer["ea.eval_us"] = eval
	r.layer["ea.useful_gen_ratio"] = ratio(float64(tot.lastImprove), float64(tot.gens))
	r.layer["ea.allocs_per_eval"] = float64(tot.mallocs) / evals
	r.layer["blockcode.distinct_blocks"] = float64(tot.distinct) / passes
	r.layer["blockcode.dedup_ms"] = ms(tot.dedup) / passes
	r.layer["blockcode.cover_us"] = cover
	r.layer["huffman.build_us"] = build
	r.layer["ea.loop_us"] = eval - cover - build
	r.layer["blockcode.encode_ms"] = ms(tot.encode) / passes
	r.layer["pipeline.cpu_per_wall"] = ratio(tot.coreCPU.Seconds(), tot.coreWall.Seconds())
	r.layer["trace.overhead_pct"] = 100 * ratio((traced-untraced).Seconds(), untraced.Seconds())
	// The core.compress span's split is derived from the per-evaluation
	// costs: its CPU time is ea.evals × ea.eval_us.
	r.named("ea.core_cover_share", ratio(cover, eval), "ratio")
	r.named("ea.core_build_share", ratio(build, eval), "ratio")
	r.named("ea.core_loop_share", ratio(eval-cover-build, eval), "ratio")
}

// spanDur is the duration of a closed span.
func spanDur(t *tracer, id int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans[id-1]
	return s.End.Sub(s.Start)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
