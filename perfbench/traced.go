package main

import (
	"context"
	"time"

	"sccsim/internal/explorer"
	"sccsim/internal/trace"
)

// probeSeconds is the length of the short serve phase a traced sweep
// run makes so that the serve and cluster layers report on every
// workload.
const probeSeconds = 4 * time.Second

// attributedLayers are the layers whose self time the traced phase
// reports as a share of its lane time (wall time x parallelism).
var attributedLayers = []string{"workload", "trace", "sim", "explorer", "rdmodel", "search", "serve", "cluster"}

// runTraced is the traced run. It measures the workload untraced for
// half the time and traced for the other half, reports the difference
// as the tracing overhead and the traced half's self time per layer,
// then probes the layers the workload does not exercise so that every
// per-layer metric is reported on every workload.
func runTraced(b *bench) error {
	ctx := context.Background()
	half := b.seconds / 2
	var err error
	if b.workload == "serve-mixed" {
		err = tracedServe(ctx, b, half)
	} else {
		err = tracedSweep(ctx, b, half)
	}
	if err != nil {
		return err
	}
	return layerProbes(ctx, b)
}

// tracedSweep is the traced run of a sweep workload, followed by a
// short traced serve phase.
func tracedSweep(ctx context.Context, b *bench, half time.Duration) error {
	cases := sweepCases(b.workload)
	ts, _, resident, err := setupTraces(b, sweepScale(b.seed), cases, 0)
	if err != nil {
		return err
	}
	b.set("trace.resident_mb", resident)

	tr := b.tr
	b.tr = nil
	// An untimed round first, so that the untraced half does not carry
	// the warm-up alone and make tracing look cheaper than it is.
	runSweeps(ctx, b, cases, ts, 0, 0)
	base := runSweeps(ctx, b, cases, ts, half, 0)
	b.tr = tr
	phase := b.tr.open("bench.timed", 0, 0)
	st := runSweeps(ctx, b, cases, ts, half, phase)
	b.tr.close(phase)
	b.check(base.digest == st.digest, "traced statistics digest %s differs from untraced %s", st.digest, base.digest)
	b.digest = st.digest
	b.setSimStats(st.grids)
	b.set("bench.trace_overhead_frac", 1-rate(st)/rate(base))

	b.sweepLayers(cases, ts, st, phase)
	b.attribute(phase, st.wall)
	return b.serveProbe(ctx)
}

func rate(st *sweepStats) float64 { return 1 / st.roundTime().Seconds() }

// sweepLayers replays the phase's points directly, adds each point's
// direct sim time as a child of its engine span, and reports the
// explorer metrics. The sim spans are derived — the program is not
// instrumented — from a direct call on the same point and trace.
func (b *bench) sweepLayers(cases []sweepCase, ts *traceSet, st *sweepStats, phase int) {
	id := b.tr.open("bench.direct", 0, 0)
	// One lane, as the engine ran them, so the direct times compare.
	direct := directReplay(b, cases, st.grids, ts, parallelism, id)
	b.tr.close(id)
	var engine, simTime time.Duration
	var queue, util, hits, generated float64
	for _, r := range st.recs {
		d := r.end.Sub(r.start)
		s := min(direct[pointKey(r.caseIdx, r.cfg)], d)
		engine += d
		simTime += s
		queue += ms(r.queueDur)
		b.tr.add("sim."+simKind(cases[r.caseIdx].w, r.cfg), r.span, r.lane, r.end.Add(-s), r.end)
	}
	for _, rep := range st.reports {
		util += rep.Utilization
		hits += float64(rep.TraceHits)
		generated += float64(rep.TraceGenerated)
	}
	n := float64(len(st.reports))
	b.set("explorer.utilization", util/n)
	b.set("explorer.queue_wait_ms", queue/float64(len(st.recs)))
	b.set("explorer.point_ms", ms(engine)/float64(len(st.recs)))
	b.set("explorer.self_ms", ms(engine-simTime)/n)
	b.set("explorer.trace_hits", hits/n)
	b.set("explorer.trace_generated", generated)
}

// attribute reports each layer's self time below the phase span as a
// share of the phase's lane time; the rest is unattributed.
func (b *bench) attribute(phase int, wall time.Duration) {
	self := b.tr.selfByLayer(phase)
	lane := float64(wall) * parallelism
	rest := 1.0
	for _, l := range attributedLayers {
		f := float64(self[l]) / lane
		b.set("attrib."+l+"_frac", f)
		rest -= f
	}
	b.set("attrib.unattributed_frac", rest)
}

// layerProbes measures the layers directly on a fixed sample, the same
// on every workload: the sim entry points, the cache, SCC and snoop
// structures driven by a workload's own address stream, the trace disk
// cache, the reuse-distance model and the search.
func layerProbes(ctx context.Context, b *bench) error {
	probe := b.tr.open("bench.probe", 0, 0)
	defer b.tr.close(probe)
	cases := []sweepCase{{w: explorer.BarnesHut}, {w: explorer.Multiprog}}
	before := liveHeap()
	ts, err := genTraces(b, sweepScale(b.seed), cases, probe)
	if err != nil {
		return err
	}
	if _, ok := b.metrics["trace.resident_mb"]; !ok {
		// serve-mixed holds no set-up traces: report the probe's.
		b.set("trace.resident_mb", float64(liveHeap()-before)/(1<<20))
	}
	b.set("workload.gen_ms", ms(ts.gen))
	b.set("workload.gen_refs_per_us", float64(ts.refs)/float64(ts.gen.Microseconds()))
	b.set("trace.compile_ms", ms(ts.compile))
	if b.workload == "serve-mixed" {
		// The serve workload has no sweep phase: the explorer metrics
		// come from one round of the probe's grids.
		st := runSweeps(ctx, b, cases, ts, 0, probe)
		b.sweepLayers(cases, ts, st, probe)
	}
	if err := probeSim(b, ts, probe); err != nil {
		return err
	}
	prog := ts.progs[progKey(explorer.BarnesHut, 8)]
	comp, err := trace.Compile(prog)
	if err != nil {
		return err
	}
	probeStructures(b, comp, probe)
	if err := probeDisk(b, ts, probe); err != nil {
		return err
	}
	return probeModel(ctx, b, ts, comp, probe)
}
