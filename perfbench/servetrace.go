package main

import (
	"context"
	"fmt"
	"time"

	"sccsim"
	"sccsim/internal/explorer"
	"sccsim/internal/obs"
	"sccsim/internal/rdmodel"
	"sccsim/internal/sysmodel"
	"sccsim/internal/trace"
	"sccsim/internal/workload/multiprog"
)

// tracedMixSeed gives the traced half of a serve-mixed run its own
// request keys, so its exact sweeps miss the result cache the untraced
// half filled.
func tracedMixSeed(seed int64) int64 { return seed + 1<<32 }

// tracedServe is the traced run of serve-mixed.
func tracedServe(ctx context.Context, b *bench, half time.Duration) error {
	f, refs, _, err := serveSetup(ctx, b, 1)
	if err != nil {
		return err
	}
	defer f.stop()
	base, baseWall := servePhase(ctx, f, newMix(b.seed), half)
	before, err := f.snapshot()
	if err != nil {
		return err
	}
	phase := b.tr.open("bench.timed", 0, 0)
	replies, wall := servePhase(ctx, f, newMix(tracedMixSeed(b.seed)), half)
	b.tr.close(phase)
	after, err := f.snapshot()
	if err != nil {
		return err
	}
	spans, err := b.serveSpans(f, replies, phase)
	if err != nil {
		return err
	}
	var grids []*explorer.Grid
	b.digest, grids = checkReplies(ctx, b, append(base, replies...), refs)
	b.setSimStats(grids)
	b.set("bench.trace_overhead_frac", 1-served(replies, wall)/served(base, baseWall))
	b.serveMetrics(replies, spans, before, after)
	b.attribute(phase, wall)
	return b.rpcOverhead(ctx, f)
}

// served is the rate of successful requests.
func served(replies []reply, wall time.Duration) float64 {
	n := 0
	for _, r := range replies {
		if r.err == nil {
			n++
		}
	}
	return float64(n) / wall.Seconds()
}

// serveProbe is the short traced serve phase of a sweep workload's
// traced run: it gives the serve and cluster layers' metrics there.
func (b *bench) serveProbe(ctx context.Context) error {
	f, refs, _, err := serveSetup(ctx, b, 1)
	if err != nil {
		return err
	}
	defer f.stop()
	before, err := f.snapshot()
	if err != nil {
		return err
	}
	id := b.tr.open("bench.serve_probe", 0, 0)
	replies, _ := servePhase(ctx, f, newMix(b.seed), probeSeconds)
	b.tr.close(id)
	after, err := f.snapshot()
	if err != nil {
		return err
	}
	spans, err := b.serveSpans(f, replies, id)
	if err != nil {
		return err
	}
	checkReplies(ctx, b, replies, refs)
	b.serveMetrics(replies, spans, before, after)
	return b.rpcOverhead(ctx, f)
}

// fleetMetrics is a /metrics snapshot of every node.
type fleetMetrics struct {
	coord   map[string]any
	workers []map[string]any
}

func (f *fleet) snapshot() (fleetMetrics, error) {
	var m fleetMetrics
	if err := f.getJSON(f.URL+"/metrics", &m.coord); err != nil {
		return m, err
	}
	for _, w := range f.Workers {
		var wm map[string]any
		if err := f.getJSON(w.URL+"/metrics", &wm); err != nil {
			return m, err
		}
		m.workers = append(m.workers, wm)
	}
	return m, nil
}

// counter reads a counter from a /metrics snapshot (0 when absent).
func counter(m map[string]any, name string) float64 {
	v, _ := m[name].(float64)
	return v
}

// serveSpans turns each reply into a client span with the coordinator's
// own spans for that request below it (from /debug/requests, matched
// by request ID), and derives the layers inside each job's simulate
// span by re-running the job's work with direct calls. It returns the
// durations of the coordinator's spans by name.
func (b *bench) serveSpans(f *fleet, replies []reply, parent int) (map[string][]float64, error) {
	recs, err := f.debugRequests(f.URL)
	if err != nil {
		return nil, err
	}
	byID := map[string]obs.RequestRecord{}
	for _, r := range recs {
		byID[r.ID] = r
	}
	durs := map[string][]float64{}
	for _, r := range replies {
		rid := b.tr.add("serve.request", parent, r.lane, r.start, r.end)
		rec, ok := byID[r.req.id]
		if !ok || r.err != nil {
			continue
		}
		at := func(ns int64) time.Time { return rec.Start.Add(time.Duration(ns)) }
		hid := b.tr.add("serve.handler", rid, r.lane, rec.Start, at(rec.DurNS))
		var waitID int
		var waitStart, waitEnd time.Time
		for _, sp := range rec.Spans {
			if sp.Name == "wait" {
				waitStart, waitEnd = at(sp.StartNS), at(sp.StartNS+sp.DurNS)
				waitID = b.tr.add("serve.wait", hid, r.lane, waitStart, waitEnd)
			}
		}
		for _, sp := range rec.Spans {
			durs[sp.Name] = append(durs[sp.Name], float64(sp.DurNS)/1e6)
			if sp.Name == "wait" {
				continue
			}
			s, e := at(sp.StartNS), at(sp.StartNS+sp.DurNS)
			p := hid
			if waitID != 0 && !s.Before(waitStart) && !e.After(waitEnd) {
				p = waitID
			}
			id := b.tr.add("serve."+sp.Name, p, r.lane, s, e)
			if sp.Name == "simulate" {
				if err := b.deriveJob(r, id, s, e); err != nil {
					return nil, err
				}
			}
		}
	}
	return durs, nil
}

// deriveJob splits a job's simulate span into layers. A sharded exact
// sweep is cluster time and a search is search time as a whole; a cold
// point and an analytic sweep are re-run with direct calls — generate,
// compile, store or profile, simulate or predict — and their times laid
// end to end from the span's start, clipped to its end.
func (b *bench) deriveJob(r reply, parent int, start, end time.Time) error {
	lay := func(name string, d time.Duration) {
		if !start.Before(end) {
			return
		}
		z := start.Add(d)
		if z.After(end) {
			z = end
		}
		b.tr.add(name, parent, r.lane, start, z)
		start = z
	}
	sc := toScale(r.req.scale)
	switch r.req.kind {
	case kindSweep:
		lay("cluster.shard", end.Sub(start))
	case kindSearch:
		lay("search.run", end.Sub(start))
	case kindPoint:
		cfg := sysmodel.Default(r.req.ppc, r.req.scc)
		ts := &traceSet{scale: sc, progs: map[string]*trace.Program{}}
		t0 := time.Now()
		var prog *trace.Program
		if r.req.workload == explorer.Multiprog {
			cfg.Clusters = 1
			ps, err := multiprog.Generate(multiprog.Params{RefsPerApp: sc.MultiprogRefs, Seed: sc.Seed})
			if err != nil {
				return err
			}
			ts.procs = ps
			prog = multiprogProgram(ps)
		} else {
			p, err := explorer.GenerateParallel(r.req.workload, cfg.Procs(), sc)
			if err != nil {
				return err
			}
			prog = p
			ts.progs[progKey(r.req.workload, cfg.Procs())] = p
		}
		lay("workload.gen", time.Since(t0))
		t0 = time.Now()
		if _, err := trace.Compile(prog); err != nil {
			return err
		}
		lay("trace.compile", time.Since(t0))
		dir, err := mkTemp(b, "derive-")
		if err != nil {
			return err
		}
		defer removeAll(dir)
		dc, err := trace.NewDiskCache(dir)
		if err != nil {
			return err
		}
		t0 = time.Now()
		if err := dc.Store("derive", prog); err != nil {
			return err
		}
		lay("trace.disk_store", time.Since(t0))
		t0 = time.Now()
		if _, err := simulate(ts, r.req.workload, cfg); err != nil {
			return err
		}
		lay("sim."+simKind(r.req.workload, cfg), time.Since(t0))
	case kindAnalytic:
		var gen, comp, prof, pred time.Duration
		for _, ppc := range sysmodel.ProcsPerClusterSweep {
			t0 := time.Now()
			prog, err := explorer.GenerateParallel(r.req.workload, sysmodel.DefaultClusters*ppc, sc)
			if err != nil {
				return err
			}
			t1 := time.Now()
			c, err := trace.Compile(prog)
			if err != nil {
				return err
			}
			t2 := time.Now()
			p, err := rdmodel.BuildProfile(c, sysmodel.DefaultClusters, rdmodel.DefaultCap())
			if err != nil {
				return err
			}
			t3 := time.Now()
			for _, size := range sysmodel.SCCSizes {
				if _, err := p.Predict(size, 1); err != nil {
					return err
				}
			}
			gen, comp, prof, pred = gen+t1.Sub(t0), comp+t2.Sub(t1), prof+t3.Sub(t2), pred+time.Since(t3)
		}
		lay("workload.gen", gen)
		lay("trace.compile", comp)
		lay("rdmodel.profile", prof)
		lay("rdmodel.predict", pred)
	}
	return nil
}

// serveMetrics reports the serve and cluster layers' metrics of a
// traced serve phase.
func (b *bench) serveMetrics(replies []reply, spans map[string][]float64, before, after fleetMetrics) {
	lat := map[string][]float64{}
	for _, r := range replies {
		if r.err != nil {
			continue
		}
		kind := r.req.kind
		if r.cache == "hit" {
			kind = "hit"
		}
		lat[kind] = append(lat[kind], ms(r.end.Sub(r.start)))
	}
	for _, k := range []string{kindPoint, kindSweep, "hit", kindAnalytic, kindSearch} {
		b.set("serve."+k+"_ms", median(lat[k]))
	}
	for _, s := range []string{"decode", "admit", "queue_wait", "simulate", "encode"} {
		b.set("serve."+s+"_ms", median(spans[s]))
	}
	delta := func(name string) float64 { return counter(after.coord, name) - counter(before.coord, name) }
	hits, misses := delta("serve.cache_hits"), delta("serve.cache_misses")
	b.set("serve.cache_hit_ratio", hits/(hits+misses))
	b.set("serve.coalesced", delta("serve.coalesced"))
	b.set("serve.shed", delta("serve.queue_full"))
	b.set("cluster.remote_points", delta("explorer.cluster_remote_points"))
	b.set("cluster.fallback_points", delta("explorer.cluster_local_points"))
	var fetched float64
	for i := range after.workers {
		fetched += counter(after.workers[i], "serve.trace_fetch_hits") - counter(before.workers[i], "serve.trace_fetch_hits")
	}
	b.set("cluster.trace_fetch_hits", fetched)
}

// rpcOverhead times HTTPCluster.RunPoint against one worker and
// subtracts the worker's own simulate span: the cost of the cluster
// RPC around a remote point.
func (b *bench) rpcOverhead(ctx context.Context, f *fleet) error {
	w := f.Workers[0]
	hc := sccsim.NewHTTPCluster(sccsim.ClusterSpec{Workers: []string{w.URL}})
	var over []float64
	for i := 0; i < 8; i++ {
		rp := sccsim.RemotePoint{
			Workload: explorer.BarnesHut, ProcsPerCluster: 2, SCCBytes: 32 << 10,
			Scale: toScale(serveScale(b.seed*1_000_000 + 900_000 + int64(i))), Backend: string(sccsim.BackendExact),
		}
		t0 := time.Now()
		_, err := hc.RunPoint(ctx, rp)
		t1 := time.Now()
		b.tr.add("cluster.run_point", 0, 0, t0, t1)
		b.attempted++
		if err != nil {
			b.check(false, "HTTPCluster.RunPoint: %v", err)
			continue
		}
		simNS, err := f.lastSimulate(w.URL, t0)
		if err != nil {
			return err
		}
		over = append(over, ms(t1.Sub(t0)-time.Duration(simNS)))
	}
	b.set("cluster.rpc_overhead_ms", median(over))
	return nil
}

// lastSimulate waits for the worker to log the /v1/point request that
// started after t0 and returns its simulate span's duration.
func (f *fleet) lastSimulate(url string, t0 time.Time) (int64, error) {
	for try := 0; try < 200; try++ {
		recs, err := f.debugRequests(url)
		if err != nil {
			return 0, err
		}
		for _, r := range recs {
			if r.Route != "POST /v1/point" || r.Start.Before(t0) {
				continue
			}
			for _, sp := range r.Spans {
				if sp.Name == "simulate" {
					return sp.DurNS, nil
				}
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return 0, fmt.Errorf("worker %s never logged the remote point", url)
}
