package main

import (
	"context"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"sccsim"
	"sccsim/internal/cache"
	"sccsim/internal/explorer"
	"sccsim/internal/mem"
	"sccsim/internal/rdmodel"
	"sccsim/internal/scc"
	"sccsim/internal/snoop"
	"sccsim/internal/sysmodel"
	"sccsim/internal/trace"
)

// probeSim times direct sim calls per entry point on a fixed sample:
// Barnes-Hut (multiprog for the scheduler) at 2 processors per cluster
// and three SCC sizes that straddle its footprint.
func probeSim(b *bench, ts *traceSet, parent int) error {
	kinds := []struct {
		name string
		w    explorer.Workload
		axes sysmodel.Axes
	}{
		{"shared", explorer.BarnesHut, sysmodel.Axes{}},
		{"multiprog", explorer.Multiprog, sysmodel.Axes{}},
		{"private", explorer.BarnesHut, sysmodel.Axes{Hierarchy: "private"}},
		{"hybrid", explorer.BarnesHut, sysmodel.Axes{Hierarchy: "hybrid"}},
		{"assoc", explorer.BarnesHut, sysmodel.Axes{Assoc: 4, Repl: "random"}},
	}
	for _, k := range kinds {
		var dur time.Duration
		var refs uint64
		for _, size := range []int{8 << 10, 64 << 10, 512 << 10} {
			cfg := sysmodel.Default(2, size)
			if k.w == explorer.Multiprog {
				cfg.Clusters = 1
			}
			cfg = k.axes.Apply(cfg)
			t0 := time.Now()
			res, err := simulate(ts, k.w, cfg)
			if err != nil {
				return err
			}
			dur += time.Since(t0)
			b.tr.add("sim."+k.name, parent, 0, t0, time.Now())
			refs += res.Refs
		}
		b.set("sim."+k.name+".ns_per_ref", float64(dur.Nanoseconds())/float64(refs))
	}
	return nil
}

// probeDisk stores the probe's traces in a fresh disk cache and loads
// them back.
func probeDisk(b *bench, ts *traceSet, parent int) error {
	dir, err := mkTemp(b, "disk-")
	if err != nil {
		return err
	}
	defer removeAll(dir)
	dc, err := trace.NewDiskCache(dir)
	if err != nil {
		return err
	}
	var store, load time.Duration
	for key, prog := range ts.progs {
		t0 := time.Now()
		if err := dc.Store(key, prog); err != nil {
			return err
		}
		t1 := time.Now()
		got, err := dc.Load(key)
		t2 := time.Now()
		b.check(err == nil && got != nil && got.Refs() == prog.Refs(), "disk cache round trip of %s: %v", key, err)
		b.tr.add("trace.disk_store", parent, 0, t0, t1)
		b.tr.add("trace.disk_load", parent, 0, t1, t2)
		store += t1.Sub(t0)
		load += t2.Sub(t1)
	}
	b.set("trace.disk_store_ms", ms(store))
	b.set("trace.disk_load_ms", ms(load))
	b.set("trace.encoded_mb", float64(dirBytes(dir))/(1<<20))
	return nil
}

// probeModel profiles the probe trace with the reuse-distance model,
// predicts every SCC size, cross-validates the analytic backend against
// the exact one on the Barnes-Hut grid, and runs one search.
func probeModel(ctx context.Context, b *bench, ts *traceSet, comp *trace.Compiled, parent int) error {
	t0 := time.Now()
	prof, err := rdmodel.BuildProfile(comp, sysmodel.DefaultClusters, rdmodel.DefaultCap())
	if err != nil {
		return err
	}
	t1 := time.Now()
	b.tr.add("rdmodel.profile", parent, 0, t0, t1)
	for _, size := range sysmodel.SCCSizes {
		if _, err := prof.Predict(size, 1); err != nil {
			return err
		}
	}
	t2 := time.Now()
	b.tr.add("rdmodel.predict", parent, 0, t1, t2)
	b.set("rdmodel.profile_ms", ms(t1.Sub(t0)))
	b.set("rdmodel.predict_us", float64(t2.Sub(t1).Microseconds())/float64(len(sysmodel.SCCSizes)))
	return probeCrossAndSearch(ctx, b, ts, parent)
}

// probeStructures drives the cache, SCC and snoop-bus structures with
// the compiled trace's own address stream: each processor's references
// go to its cluster's structure, four clusters as in the paper.
func probeStructures(b *bench, comp *trace.Compiled, parent int) {
	const clusters = 4
	type access struct {
		cluster int
		addr    uint32
		kind    mem.Kind
	}
	var stream []access
	for _, phase := range comp.Streams {
		for p, refs := range phase {
			for _, r := range refs {
				if r.Kind == mem.Read || r.Kind == mem.Write {
					stream = append(stream, access{p * clusters / comp.Procs, r.Addr, r.Kind})
				}
			}
		}
	}
	timeIt := func(name string, fn func()) float64 {
		t0 := time.Now()
		fn()
		b.tr.add(name, parent, 0, t0, time.Now())
		return float64(time.Since(t0).Nanoseconds()) / float64(len(stream))
	}

	dm := cache.MustNew(64<<10, 1)
	b.set("cache.dm_ns_per_access", timeIt("cache.dm", func() {
		for _, a := range stream {
			dm.Access(a.addr, a.kind)
		}
	}))
	assoc, err := cache.NewWith(64<<10, 4, 16, "random")
	b.check(err == nil, "4-way random cache: %v", err)
	if err == nil {
		b.set("cache.assoc4_ns_per_access", timeIt("cache.assoc4", func() {
			for _, a := range stream {
				assoc.Access(a.addr, a.kind)
			}
		}))
	}

	sccs := make([]*scc.SCC, clusters)
	invs := make([]snoop.Invalidator, clusters)
	for i := range sccs {
		sccs[i] = scc.MustNew(64<<10, 1, 8)
		invs[i] = sccs[i]
	}
	b.set("scc.ns_per_access", timeIt("scc.access", func() {
		for i, a := range stream {
			sccs[a.cluster].Access(uint64(i), a.addr, a.kind)
		}
	}))
	bus := snoop.New(invs)
	b.set("snoop.ns_per_fetch", timeIt("snoop.fetch", func() {
		for i, a := range stream {
			bus.Fetch(uint64(i)*4, a.cluster, a.addr, a.kind)
		}
	}))
}

// probeCrossAndSearch cross-validates the analytic backend against the
// exact simulator on the probe's Barnes-Hut grid and runs one adaptive
// search over the paper's processor counts and five SCC sizes.
func probeCrossAndSearch(ctx context.Context, b *bench, ts *traceSet, parent int) error {
	opts := []sccsim.Opt{sccsim.WithScale(ts.scale), sccsim.WithParallelism(parallelism), sccsim.WithTraceStore(ts)}
	id := b.tr.open("rdmodel.crossval", parent, 0)
	rep, err := sccsim.CrossValidate(ctx, explorer.BarnesHut, opts...)
	b.tr.close(id)
	if err != nil {
		return err
	}
	b.set("rdmodel.max_abs_err", rep.MaxAbsErr)

	spec := sccsim.SearchSpec{Space: sccsim.SearchSpace{
		ProcsPerCluster: []int{1, 2, 4, 8},
		SCCBytes:        []int{8 << 10, 32 << 10, 64 << 10, 128 << 10, 512 << 10},
	}}
	t0 := time.Now()
	res, err := sccsim.SearchCtx(ctx, explorer.BarnesHut, spec, opts...)
	if err != nil {
		return err
	}
	b.tr.add("search.run", parent, 0, t0, time.Now())
	b.check(len(res.Frontier) > 0, "search found an empty frontier")
	b.set("search.ms", ms(time.Since(t0)))
	b.set("search.exact_sims", float64(res.Stats.ExactSims))
	b.set("search.analytic_evals", float64(res.Stats.AnalyticEvals))
	return nil
}

// mkTemp makes a scratch directory under the run's work directory.
func mkTemp(b *bench, prefix string) (string, error) {
	root := filepath.Join(b.work, "tmp")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, prefix)
}

func removeAll(dir string) { _ = os.RemoveAll(dir) } // scratch only; a leftover costs disk, not results

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, ierr := d.Info(); ierr == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}
