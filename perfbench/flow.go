package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	tcomp "repro"
	"repro/internal/pipeline"
)

// flowCases are the flows flow-async submits; a cycle runs each once,
// in this order. The stuck-at flows run PODEM on up to 64-input
// circuits, where ATPG is a third to a half of the flow; the path-delay
// flows spend under 1% in test generation and the rest in the codec
// race, compression and decoder synthesis. The longest flows come first
// in a cycle, so the last flows of a run, which may find the other
// client idle, are short ones.
var flowCases = []struct{ bench, tests string }{
	{"s5378", tcomp.FlowStuckAt},
	{"s1423", tcomp.FlowStuckAt},
	{"c432", tcomp.FlowStuckAt},
	{"s1423", tcomp.FlowPathDelay},
	{"s444", tcomp.FlowStuckAt},
	{"s298", tcomp.FlowStuckAt},
	{"s298", tcomp.FlowPathDelay},
	{"s444", tcomp.FlowPathDelay},
	{"s27", tcomp.FlowPathDelay},
}

// flowCircuitSeed fixes the circuits. TestFlow.GenerateCircuit derives
// a benchmark's netlist from the flow seed, and the ATPG work of a
// random netlist varies several-fold between seeds, which would set
// each run's figures more than the program does. So every run submits
// the same nine netlists, generated at this seed, and --seed varies the
// flow seeds (ATPG, codec race and compression seeds) instead. At this
// seed every case has robustly testable paths; at other seeds the
// 7-input s27 circuit may have none, and the flow then fails by design.
const flowCircuitSeed = 1

// Stage seed indices of tcomp.TestFlow (flow.go): the replay derives
// the same per-stage seeds the daemon's flow uses.
const (
	flowStageCompress = 3
	flowStageDecoder  = 4
)

const (
	flowClients = 2
	// flowPoll is the clients' fixed polling cadence. The client's
	// default backoff (100 ms doubling to 3 s) would round flow times up
	// to its steps.
	flowPoll = 5 * time.Millisecond
	// flowMinCycles is how many whole cycles the measured phase runs at
	// least: the per-case medians need three samples to set one slow
	// flow aside. The traced run's phases run at least one each.
	flowMinCycles = 3
	// The warm-up runs the cheap s444 path-delay case at a fixed seed,
	// so set-up does the same work at every --seed.
	flowWarmCase = 7
	flowWarmSeed = 1
)

type flowBench struct {
	d        *daemon
	seed     int64    // --seed
	dirs     int      // daemon stores created so far
	netlists [][]byte // .bench text of each case's circuit
	generate time.Duration
}

func init() {
	b := &flowBench{}
	workloads["flow-async"] = workload{name: "flow-async", setup: b.setup, run: b.run}
}

// caseSeed is the flow seed of one case: it seeds the case's ATPG, codec
// race and compressions. A case keeps its seed in every cycle, so the
// cycles repeat the same work and differ only in how long the host took;
// the nine cases' seeds are independent, so the work of a cycle still
// averages nine seeds.
func (b *flowBench) caseSeed(i int) int64 {
	s := pipeline.Seed(b.seed, i)
	if s == 0 {
		s = 1 // the daemon reads seed 0 as "unset"
	}
	return s
}

// newFlow builds the in-process twin of the daemon's flow for one case.
func newFlow(i int, seed int64) *tcomp.TestFlow {
	return tcomp.NewTestFlow(tcomp.FlowSeed(seed), tcomp.FlowTests(flowCases[i].tests),
		tcomp.FlowCodecOptions(tcomp.WithSeed(seed)))
}

// parse reads a case's netlist the way the daemon does.
func (b *flowBench) parse(f *tcomp.TestFlow, i int) (*tcomp.Circuit, error) {
	return f.ParseCircuit("submitted", bytes.NewReader(b.netlists[i]))
}

// setup generates the nine netlists, starts tcompd on a fresh disk
// store with two job workers, and runs and verifies one cheap flow.
func (b *flowBench) setup(cfg config) (func(), error) {
	b.seed = cfg.seed
	b.netlists = make([][]byte, len(flowCases))
	start := time.Now()
	for i, fc := range flowCases {
		c, err := newFlow(i, flowCircuitSeed).GenerateCircuit(context.Background(), fc.bench)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := c.WriteBench(&buf); err != nil {
			return nil, err
		}
		b.netlists[i] = buf.Bytes()
	}
	b.generate = time.Since(start)
	b.dirs++
	dir := filepath.Join(cfg.out, "flow")
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	store := filepath.Join(dir, fmt.Sprintf("store-%d", b.dirs))
	d, err := startDaemon(cfg.tcompd, dir, "-store-dir", store, "-job-workers", "2")
	if err != nil {
		return nil, err
	}
	b.d = d
	ctx := context.Background()
	o, err := b.submit(ctx, b.client(), flowWarmCase, flowWarmSeed)
	if err == nil {
		err = b.verify(ctx, o)
	}
	if err != nil {
		d.stop()
		return nil, fmt.Errorf("warm-up flow: %w", err)
	}
	return d.stop, nil
}

func (b *flowBench) client() *tcomp.Client {
	return &tcomp.Client{BaseURL: b.d.url, HTTPClient: b.d.http, PollInterval: flowPoll}
}

// flowOutcome is one completed flow as its client saw it.
type flowOutcome struct {
	caseIdx    int
	cycle      int
	seed       int64
	start, end time.Time
	fetchStart time.Time // the artifact fetches run from here to end
	job        *tcomp.JobStatus
	report     *tcomp.FlowReport
	container  []byte
	verilog    []byte
	decoded    *tcomp.TestSet
}

// submit runs one flow end to end: submit, wait, fetch the report and
// both artifacts. It checks what needs only the fetched bytes: the
// container decodes and decoder.v holds the decoder module.
func (b *flowBench) submit(ctx context.Context, cl *tcomp.Client, i int, seed int64) (*flowOutcome, error) {
	fc := flowCases[i]
	o := &flowOutcome{caseIdx: i, seed: seed, start: time.Now()}
	job, err := cl.SubmitFlow(ctx, tcomp.FlowRequest{
		Netlist: bytes.NewReader(b.netlists[i]), Tests: fc.tests, Options: []tcomp.Option{tcomp.WithSeed(seed)},
	})
	if err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}
	if job, err = cl.WaitJob(ctx, job.ID); err != nil {
		return nil, fmt.Errorf("wait: %w", err)
	}
	if job.State != tcomp.JobDone {
		return nil, fmt.Errorf("job %s ended %s: %s", job.ID, job.State, job.Error)
	}
	o.job = job
	if o.report, err = cl.FlowReport(ctx, job.ID); err != nil {
		return nil, fmt.Errorf("report: %w", err)
	}
	var cbuf, vbuf bytes.Buffer
	o.fetchStart = time.Now()
	if _, err := cl.FlowArtifact(ctx, job.ID, "container", &cbuf); err != nil {
		return nil, fmt.Errorf("container: %w", err)
	}
	if _, err := cl.FlowArtifact(ctx, job.ID, "verilog", &vbuf); err != nil {
		return nil, fmt.Errorf("verilog: %w", err)
	}
	o.end = time.Now()
	o.container, o.verilog = cbuf.Bytes(), vbuf.Bytes()

	if o.report.Tests == nil {
		return nil, fmt.Errorf("report has no test-generation section")
	}
	if o.decoded, err = decodeStream(o.container); err != nil {
		return nil, fmt.Errorf("container does not decode: %w", err)
	}
	if !bytes.Contains(o.verilog, []byte("module "+tcomp.FlowDecoderModule)) {
		return nil, fmt.Errorf("decoder.v has no module %s", tcomp.FlowDecoderModule)
	}
	return o, nil
}

// verify regenerates the flow's test set in-process and checks that
// the daemon's container keeps every specified bit of it, and that the
// daemon reports the same coverage. It runs after the measurement.
func (b *flowBench) verify(ctx context.Context, o *flowOutcome) error {
	f := newFlow(o.caseIdx, o.seed)
	c, err := b.parse(f, o.caseIdx)
	if err != nil {
		return err
	}
	tr, err := f.RunATPG(ctx, c)
	if err != nil {
		return err
	}
	if !tcomp.VerifyLossless(tr.Set, o.decoded) {
		return fmt.Errorf("container lost specified bits of the test set")
	}
	if got := o.report.Tests.CoveragePercent; got != tr.CoveragePercent {
		return fmt.Errorf("daemon coverage %.6f%% differs from the in-process flow's %.6f%%", got, tr.CoveragePercent)
	}
	return nil
}

// flowStages is one replayed flow's layer times.
type flowStages struct {
	parse, atpg, race, compress, verify, source, emit time.Duration
}

func (s flowStages) total() time.Duration {
	return s.parse + s.atpg + s.race + s.compress + s.verify + s.source + s.emit
}

// replay re-runs the flow in-process, one TestFlow stage method per
// span, and checks it produces the daemon's container and decoder byte
// for byte. The spans are attached under the job's run span.
func (b *flowBench) replay(ctx context.Context, t *tracer, o *flowOutcome, runSpan int) (flowStages, error) {
	var st flowStages
	i := o.caseIdx
	f := newFlow(i, o.seed)
	rp := &replay{}
	var c *tcomp.Circuit
	var err error
	if st.parse, err = rp.timed("circuit.parse", nil, func() (err error) {
		c, err = b.parse(f, i)
		return err
	}); err != nil {
		return st, err
	}
	atpgName := "atpg"
	if flowCases[i].tests == tcomp.FlowPathDelay {
		atpgName = "delay"
	}
	var tr *tcomp.FlowTestsResult
	if st.atpg, err = rp.timed(atpgName, nil, func() (err error) {
		tr, err = f.RunATPG(ctx, c)
		return err
	}); err != nil {
		return st, err
	}
	var race *tcomp.FlowRace
	if st.race, err = rp.timed("flow.race", nil, func() (err error) {
		race, err = f.RaceCodecs(ctx, tr.Set)
		return err
	}); err != nil {
		return st, err
	}
	var cbuf bytes.Buffer
	if st.compress, err = rp.timed("stream.compress", nil, func() error {
		sw, err := tcomp.NewStreamWriter(ctx, &cbuf, race.Winner, tr.Set.Width,
			tcomp.WithWorkers(0), tcomp.WithSeed(pipeline.Seed(o.seed, flowStageCompress)))
		if err != nil {
			return err
		}
		if err := sw.WriteSet(tr.Set); err != nil {
			_ = sw.Close() // the WriteSet error is the one to report
			return err
		}
		return sw.Close()
	}); err != nil {
		return st, err
	}
	if st.verify, err = rp.timed("stream.verify", nil, func() error {
		dec, err := decodeStream(cbuf.Bytes())
		if err != nil {
			return err
		}
		if !tcomp.VerifyLossless(tr.Set, dec) {
			return fmt.Errorf("replayed container lost specified bits")
		}
		return nil
	}); err != nil {
		return st, err
	}
	var blockArt *tcomp.Artifact
	if st.source, err = rp.timed("decoder.source_compress", nil, func() error {
		codec, err := tcomp.Lookup(race.BlockWinner)
		if err != nil {
			return err
		}
		blockArt, err = codec.Compress(ctx, tr.Set,
			tcomp.WithWorkers(0), tcomp.WithSeed(pipeline.Seed(o.seed, flowStageDecoder)))
		if err != nil {
			return err
		}
		dec, err := tcomp.Decompress(blockArt)
		if err != nil {
			return err
		}
		if !tcomp.VerifyLossless(tr.Set, dec) {
			return fmt.Errorf("replayed decoder source lost specified bits")
		}
		return nil
	}); err != nil {
		return st, err
	}
	var vbuf bytes.Buffer
	if st.emit, err = rp.timed("decoder.emit", nil, func() error {
		_, err := f.EmitDecoder(ctx, blockArt, &vbuf, tcomp.FlowDecoderModule)
		return err
	}); err != nil {
		return st, err
	}
	if !bytes.Equal(cbuf.Bytes(), o.container) {
		return st, fmt.Errorf("replayed container differs from the daemon's")
	}
	if !bytes.Equal(vbuf.Bytes(), o.verilog) {
		return st, fmt.Errorf("replayed decoder.v differs from the daemon's")
	}
	if tr.CoveragePercent != o.report.Tests.CoveragePercent {
		return st, fmt.Errorf("replayed coverage differs from the daemon's")
	}
	t.attachReplay(runSpan, o.job.Started, rp)
	return st, nil
}

// traceFlow records the flow's spans: the client's end-to-end root; the
// job's queue and run intervals from the daemon's own timestamps; the
// artifact fetches; and, under the run span, the replayed stages.
func (b *flowBench) traceFlow(ctx context.Context, t *tracer, o *flowOutcome) (flowStages, error) {
	root := t.add(span{Name: "flow", Start: o.start, End: o.end})
	t.add(span{Parent: root, Name: "jobs.queue", Start: o.job.Created, End: o.job.Started})
	run := t.add(span{Parent: root, Name: "jobs.run", Start: o.job.Started, End: o.job.Finished})
	t.add(span{Parent: root, Name: "artifact.fetch", Start: o.fetchStart, End: o.end})
	return b.replay(ctx, t, o, run)
}

// flowPhase is what one measured phase produced.
type flowPhase struct {
	outcomes []*flowOutcome
	stages   []flowStages // traced phase: one per outcome
	// busy is the clients' mean time from the phase start to their last
	// completed flow. A client that finds no flow left stops early; the
	// time it would idle is not the daemon's.
	busy  time.Duration
	fails []string
}

// phase runs both clients over the cycles until the budget is spent and
// the current cycle is complete, and at least minCycles cycles, so every
// case runs equally often.
func (b *flowBench) phase(ctx context.Context, budget time.Duration, minCycles int, t *tracer) *flowPhase {
	ph := &flowPhase{}
	var mu sync.Mutex
	var next atomic.Int64
	var stopAt atomic.Int64
	const unset = 1 << 62
	stopAt.Store(unset)
	cycle := int64(len(flowCases))
	start := time.Now()
	ends := make([]time.Time, flowClients)
	var wg sync.WaitGroup
	for c := 0; c < flowClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := b.client()
			ends[c] = start
			for {
				k := next.Add(1) - 1
				if time.Since(start) >= budget && k >= int64(minCycles)*cycle {
					stopAt.CompareAndSwap(unset, (k+cycle-1)/cycle*cycle)
				}
				if k >= stopAt.Load() {
					return
				}
				i, cyc := int(k%cycle), int(k/cycle)
				o, err := b.submit(ctx, cl, i, b.caseSeed(i))
				var st flowStages
				if err == nil {
					o.cycle = cyc
					if t != nil {
						st, err = b.traceFlow(ctx, t, o)
					}
				}
				mu.Lock()
				if err != nil {
					ph.fails = append(ph.fails, flowFailure(&flowOutcome{caseIdx: i, cycle: cyc}, err))
				} else {
					ph.outcomes = append(ph.outcomes, o)
					ph.stages = append(ph.stages, st)
				}
				mu.Unlock()
				ends[c] = time.Now()
			}
		}(c)
	}
	wg.Wait()
	for _, end := range ends {
		ph.busy += end.Sub(start) / flowClients
	}
	return ph
}

// verifyAll checks the outcomes and returns one message per failed
// flow. A case runs with the same seed in every cycle, so verify runs on
// its first outcome, two cases at a time, and every later outcome of the
// case must equal that one byte for byte.
func (b *flowBench) verifyAll(ctx context.Context, outcomes []*flowOutcome) []string {
	first := make([]*flowOutcome, len(flowCases))
	for _, o := range outcomes {
		if f := first[o.caseIdx]; f == nil || o.cycle < f.cycle {
			first[o.caseIdx] = o
		}
	}
	fails := make([]string, len(outcomes))
	var wg sync.WaitGroup
	sem := make(chan struct{}, flowClients)
	for k, o := range outcomes {
		if o != first[o.caseIdx] {
			if err := sameFlow(first[o.caseIdx], o); err != nil {
				fails[k] = flowFailure(o, err)
			}
			continue
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(k int, o *flowOutcome) {
			defer func() { <-sem; wg.Done() }()
			if err := b.verify(ctx, o); err != nil {
				fails[k] = flowFailure(o, err)
			}
		}(k, o)
	}
	wg.Wait()
	var out []string
	for _, f := range fails {
		if f != "" {
			out = append(out, f)
		}
	}
	return out
}

// sameFlow checks that a repeated flow gave the verified one's outputs.
func sameFlow(want, got *flowOutcome) error {
	if !bytes.Equal(got.container, want.container) {
		return fmt.Errorf("container differs from cycle %d's at the same seed", want.cycle)
	}
	if !bytes.Equal(got.verilog, want.verilog) {
		return fmt.Errorf("decoder.v differs from cycle %d's at the same seed", want.cycle)
	}
	if got.report.Tests.CoveragePercent != want.report.Tests.CoveragePercent {
		return fmt.Errorf("coverage differs from cycle %d's at the same seed", want.cycle)
	}
	return nil
}

func flowFailure(o *flowOutcome, err error) string {
	fc := flowCases[o.caseIdx]
	return fmt.Sprintf("flow %s/%s cycle %d: %v", fc.bench, fc.tests, o.cycle, err)
}

func (b *flowBench) run(cfg config, r *report) error {
	ctx := context.Background()
	before, err := b.d.scrape(ctx)
	if err != nil {
		return err
	}
	rss := sampleRSS(b.d.cmd.Process.Pid)
	budget, minCycles := cfg.seconds, flowMinCycles
	if cfg.trace {
		budget, minCycles = budget/2, 1
	}
	untraced := b.phase(ctx, budget, minCycles, nil)
	var traced *flowPhase
	mid := before
	if cfg.trace {
		if mid, err = b.d.scrape(ctx); err != nil {
			return err
		}
		traced = b.phase(ctx, budget, minCycles, r.spans)
	}
	rssMean, peak, err := rss.Stop()
	if err != nil {
		return err
	}
	after, err := b.d.scrape(ctx)
	if err != nil {
		return err
	}

	phases := []*flowPhase{untraced}
	if traced != nil {
		phases = append(phases, traced)
	}
	for _, ph := range phases {
		r.attempted += len(ph.outcomes) + len(ph.fails)
		r.failed += len(ph.fails)
		r.failures = append(r.failures, ph.fails...)
	}
	// The traced phase's replay already checked its flows byte for byte.
	for _, f := range b.verifyAll(ctx, untraced.outcomes) {
		r.fail("%s", f)
	}

	lat := map[string][]float64{}
	var bits, rateOrig, rateComp, coverage float64
	head := 0
	for _, o := range untraced.outcomes {
		fc := flowCases[o.caseIdx]
		lat[fc.bench+"/"+fc.tests] = append(lat[fc.bench+"/"+fc.tests], ms(o.end.Sub(o.start)))
		bits += float64(o.report.Container.OriginalBits)
		// Every cycle repeats the first one's outputs (verifyAll checks
		// it), so the rate and coverage are cycle 0's.
		if o.cycle == 0 {
			head++
			rateOrig += float64(o.report.Container.OriginalBits)
			rateComp += float64(o.report.Container.CompressedBits)
			coverage += o.report.Tests.CoveragePercent
		}
	}
	if head != len(flowCases) {
		r.fail("only %d of the first cycle's %d flows completed", head, len(flowCases))
	}
	flows := float64(len(untraced.outcomes))
	var all []float64
	for _, xs := range lat {
		all = append(all, xs...)
	}
	r.e2e["rss_mb_mean"] = rssMean
	r.e2e["ops_per_s"] = closedLoopRate(flowClients, lat) * 1000
	r.e2e["latency_ms_p50"] = typedLatency(lat)
	r.e2e["rate_pct"] = 100 * ratio(rateOrig-rateComp, rateOrig)
	r.named("flow.per_min", 60*r.e2e["ops_per_s"], "1/min")
	r.named("flow.busy_per_s", flows/untraced.busy.Seconds(), "1/s")
	for _, fc := range flowCases {
		r.named("flow.s_p50."+fc.bench+"/"+fc.tests, median(lat[fc.bench+"/"+fc.tests])/1000, "s")
	}
	r.named("flow.s_p50", median(all)/1000, "s")
	r.named("flow.rate_pct", r.e2e["rate_pct"], "%")
	r.named("flow.coverage_pct", ratio(coverage, float64(head)), "%")
	r.named("flow.bits_per_s", bits/untraced.busy.Seconds(), "bit/s")
	r.named("flow.count", flows, "count")
	r.named("flow.daemon_errors", delta(before, after, "tcompd_errors_total"), "count")
	r.named("peak_rss_mb", peak, "MB")
	if traced == nil {
		return nil
	}
	flowLayerMetrics(r, traced, mid, after, typedLatency(lat))
	r.layer["circuit.generate_ms"] = ms(b.generate) / float64(len(flowCases))
	r.layer["flow.coverage_pct"] = ratio(coverage, float64(head))
	return nil
}

func flowLayerMetrics(r *report, ph *flowPhase, before, after promSample, untracedLatency float64) {
	n := float64(len(ph.outcomes))
	var sum flowStages
	var nSA, nPD float64
	var atpgSA, delayPD time.Duration
	var aborted, targets int
	lat := map[string][]float64{}
	for k, o := range ph.outcomes {
		st := ph.stages[k]
		sum.parse += st.parse
		sum.atpg += st.atpg
		sum.race += st.race
		sum.compress += st.compress
		sum.verify += st.verify
		sum.source += st.source
		sum.emit += st.emit
		fc := flowCases[o.caseIdx]
		if fc.tests == tcomp.FlowStuckAt {
			nSA++
			atpgSA += st.atpg
			aborted += o.report.Tests.Aborted
			targets += o.report.Tests.Targets
		} else {
			nPD++
			delayPD += st.atpg
		}
		lat[fc.bench+"/"+fc.tests] = append(lat[fc.bench+"/"+fc.tests], ms(o.end.Sub(o.start)))
	}
	stats, _ := r.spans.layers()
	span := func(name string) *layerStat {
		if st := stats[name]; st != nil {
			return st
		}
		return &layerStat{}
	}
	r.layer["circuit.parse_ms"] = ms(sum.parse) / n
	r.layer["atpg.s"] = ratio(atpgSA.Seconds(), nSA)
	r.layer["atpg.aborted_ratio"] = ratio(float64(aborted), float64(targets))
	r.layer["delay.s"] = ratio(delayPD.Seconds(), nPD)
	r.layer["flow.race_s"] = sum.race.Seconds() / n
	r.layer["flow.race_share"] = ratio(sum.race.Seconds(), sum.total().Seconds())
	r.layer["stream.compress_s"] = sum.compress.Seconds() / n
	r.layer["stream.verify_s"] = sum.verify.Seconds() / n
	r.layer["decoder.source_compress_s"] = sum.source.Seconds() / n
	r.layer["decoder.emit_ms"] = ms(sum.emit) / n
	r.layer["jobs.queue_s"] = span("jobs.queue").Total.Seconds() / n
	r.layer["jobs.run_s"] = span("jobs.run").Total.Seconds() / n
	r.layer["flow.client_wait_s"] = span("flow").Self.Seconds() / n
	r.layer["artifact.fetch_ms"] = ms(span("artifact.fetch").Total) / n
	// The daemon's stage histogram covers atpg, race, compress and
	// emit-verilog; the replay timed the same four calls.
	daemonStages := delta(before, after, "tcompd_flow_stage_seconds_sum")
	replayed := (sum.atpg + sum.race + sum.compress + sum.emit).Seconds()
	r.layer["flow.stage_check_ratio"] = ratio(replayed, daemonStages)
	r.layer["trace.overhead_pct"] = 100 * ratio(typedLatency(lat)-untracedLatency, untracedLatency)
}
