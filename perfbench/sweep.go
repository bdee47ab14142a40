package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"sccsim"
	"sccsim/internal/cache"
	"sccsim/internal/explorer"
	"sccsim/internal/mem"
	"sccsim/internal/sim"
	"sccsim/internal/sysmodel"
	"sccsim/internal/trace"
	"sccsim/internal/workload/multiprog"
)

// sweepScale is the fixed problem size of the sweep workloads: twice
// quick scale in bodies, particles and multiprogramming references, and
// 12x12 Cholesky, with one time step each, so that a round of the grids
// takes a few seconds and a run replays every grid several times. The
// footprints straddle the 4 KB-512 KB SCC sizes (a Barnes-Hut traversal
// fits the smallest cache; MP3D's cell array exceeds the largest).
func sweepScale(seed int64) explorer.Scale {
	return explorer.Scale{
		BarnesBodies: 512, BarnesSteps: 1,
		MP3DParticles: 4000, MP3DSteps: 1,
		MultiprogRefs: 80_000,
		CholeskyGridW: 12, CholeskyGridH: 12,
		Seed: seed,
	}
}

// sweepCase is one SweepCtx call: a workload's full 8x4 grid under one
// architecture-axes setting.
type sweepCase struct {
	w    explorer.Workload
	axes sysmodel.Axes
}

func (c sweepCase) String() string {
	if c.axes.IsZero() {
		return string(c.w)
	}
	raw, _ := json.Marshal(c.axes)
	return string(c.w) + string(raw)
}

// sweepCases lists the grids one round of a sweep workload replays.
// sweep-axes leaves out multiprog because the private and hybrid
// hierarchies model parallel programs only.
func sweepCases(workload string) []sweepCase {
	if workload == "sweep-shared" {
		var cs []sweepCase
		for _, w := range explorer.AllWorkloads {
			cs = append(cs, sweepCase{w: w})
		}
		return cs
	}
	axes := []sysmodel.Axes{
		{Hierarchy: "private"},
		{Hierarchy: "hybrid"},
		{Assoc: 4, Repl: "random"},
		{LineBytes: 64},
	}
	var cs []sweepCase
	for _, a := range axes {
		for _, w := range explorer.ParallelWorkloads {
			cs = append(cs, sweepCase{w: w, axes: a})
		}
	}
	return cs
}

// traceSet holds the traces generated and compiled during set-up and
// hands them to the sweep engine as its trace store, so the timed phase
// never runs a generator. Load recognizes the engine's cache keys by
// the workload, processor count and seed they embed; a key it does not
// recognize is a miss, which the engine answers by generating; runSweeps
// fails the run when that happens.
type traceSet struct {
	scale   explorer.Scale
	progs   map[string]*trace.Program // by progKey
	procs   []sim.Process             // the multiprogramming process set
	refs    uint64
	gen     time.Duration // time spent in the generators
	compile time.Duration // time spent compiling
}

func progKey(w explorer.Workload, procs int) string { return fmt.Sprintf("-%s-p%d-", w, procs) }

func (s *traceSet) Load(key string) (*trace.Program, error) {
	seed := fmt.Sprintf("-seed%d", s.scale.Seed)
	if strings.Contains(key, "-multiprog-") && strings.HasSuffix(key, seed) && s.procs != nil {
		return multiprogProgram(s.procs), nil
	}
	if !strings.Contains(key, seed+"-") {
		return nil, nil
	}
	for k, p := range s.progs {
		if strings.Contains(key, k) {
			return p, nil
		}
	}
	return nil, nil
}

// multiprogProgram packs the multiprogramming processes into the
// one-processor, phase-per-process program the engine's trace store
// holds them as.
func multiprogProgram(procs []sim.Process) *trace.Program {
	p := &trace.Program{Name: "multiprog", Procs: 1}
	for _, ps := range procs {
		p.Phases = append(p.Phases, trace.Phase{Name: ps.Name, Streams: [][]mem.Ref{ps.Refs}})
	}
	return p
}

// Store is a no-op: the set-up already holds every trace.
func (s *traceSet) Store(string, *trace.Program) error { return nil }

// genTraces generates and compiles every trace the cases replay: one
// program per (parallel workload, processor count), plus the eight
// multiprogramming processes.
func genTraces(b *bench, sc explorer.Scale, cases []sweepCase, parent int) (*traceSet, error) {
	ts := &traceSet{scale: sc, progs: map[string]*trace.Program{}}
	for _, c := range cases {
		if c.w == explorer.Multiprog {
			if ts.procs != nil {
				continue
			}
			t0 := time.Now()
			ps, err := multiprog.Generate(multiprog.Params{RefsPerApp: sc.MultiprogRefs, Seed: sc.Seed})
			if err != nil {
				return nil, err
			}
			ts.gen += time.Since(t0)
			b.tr.add("workload.gen", parent, 0, t0, time.Now())
			ts.procs = ps
			for _, p := range ps {
				ts.refs += uint64(len(p.Refs))
			}
			continue
		}
		for _, ppc := range sysmodel.ProcsPerClusterSweep {
			procs := sysmodel.DefaultClusters * ppc
			key := progKey(c.w, procs)
			if ts.progs[key] != nil {
				continue
			}
			t0 := time.Now()
			prog, err := explorer.GenerateParallel(c.w, procs, sc)
			if err != nil {
				return nil, err
			}
			ts.gen += time.Since(t0)
			t1 := time.Now()
			b.tr.add("workload.gen", parent, 0, t0, t1)
			comp, err := trace.Compile(prog)
			if err != nil {
				return nil, err
			}
			ts.compile += time.Since(t1)
			b.tr.add("trace.compile", parent, 0, t1, time.Now())
			ts.progs[key] = prog
			ts.refs += comp.Refs()
		}
	}
	return ts, nil
}

// setupTraces runs the set-up setupRuns times and keeps the last trace
// set; setup_s is the median. It also returns the live heap the kept
// traces hold, measured after garbage collection.
func setupTraces(b *bench, sc explorer.Scale, cases []sweepCase, parent int) (*traceSet, float64, float64, error) {
	var times []float64
	var ts *traceSet
	var resident float64
	for i := 0; i < setupRuns; i++ {
		ts = nil
		before := liveHeap()
		id := b.tr.open("bench.setup", parent, 0)
		t0 := time.Now()
		var err error
		ts, err = genTraces(b, sc, cases, id)
		times = append(times, time.Since(t0).Seconds())
		b.tr.close(id)
		if err != nil {
			return nil, 0, 0, err
		}
		resident = float64(liveHeap()-before) / (1 << 20)
	}
	return ts, median(times), resident, nil
}

// liveHeap is the heap in use after a full collection.
func liveHeap() int64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// pointRec is one completed design point as the engine reported it.
type pointRec struct {
	span     int // explorer.point span id (traced only)
	caseIdx  int
	cfg      sysmodel.Config
	start    time.Time
	end      time.Time
	lane     int
	queueDur time.Duration
}

// sweepStats aggregates the replays of one timed phase.
type sweepStats struct {
	wall    time.Duration
	replays int                  // grids replayed
	times   [][]time.Duration    // each case's replay wall times, in case order
	lat     map[string][]float64 // each point's wall times (ms), by pointKey
	recs    []pointRec
	reports []sccsim.SweepReport
	grids   []*explorer.Grid // the first round's grids, in case order
	raw     [][]byte         // their JSON, which every replay must repeat
	digest  string
}

// runSweeps replays the cases in turn, whole rounds first, until dur has
// passed and at least one round is complete, and checks that every
// replay of a case simulated identical statistics. It stops between two
// grids, so the phase overruns dur by at most one grid.
func runSweeps(ctx context.Context, b *bench, cases []sweepCase, ts *traceSet, dur time.Duration, parent int) *sweepStats {
	st := &sweepStats{
		times: make([][]time.Duration, len(cases)), lat: map[string][]float64{},
		grids: make([]*explorer.Grid, len(cases)), raw: make([][]byte, len(cases)),
	}
	rid := 0
	start := time.Now()
	for ; st.replays < len(cases) || time.Since(start) < dur; st.replays++ {
		ci := st.replays % len(cases)
		c := cases[ci]
		if ci == 0 {
			rid = b.tr.open("bench.round", parent, 0)
		}
		sid := b.tr.open("explorer.sweep", rid, 0)
		var recs []pointRec
		var rep sccsim.SweepReport
		t0 := time.Now()
		g, err := sccsim.SweepCtx(ctx, c.w,
			sccsim.WithScale(ts.scale), sccsim.WithParallelism(parallelism),
			sccsim.WithTraceStore(ts), sccsim.WithAxes(c.axes),
			sccsim.WithProgress(func(p sccsim.Progress) {
				end := time.Now()
				recs = append(recs, pointRec{caseIdx: ci, cfg: p.Config,
					start: end.Add(-p.PointTime), end: end, queueDur: p.QueueWait})
			}),
			sccsim.WithSweepReport(func(r sccsim.SweepReport) { rep = r }))
		st.times[ci] = append(st.times[ci], time.Since(t0))
		b.tr.close(sid)
		b.attempted += len(sysmodel.SCCSizes) * len(sysmodel.ProcsPerClusterSweep)
		if err != nil {
			b.check(false, "%s sweep: %v", c, err)
		} else {
			// A trace the set-up's store did not supply was generated
			// inside the timed phase, which would skew its timing.
			b.check(rep.TraceGenerated == 0, "%s: the engine generated %d traces the set-up did not supply", c, rep.TraceGenerated)
			raw, err := json.Marshal(g)
			b.check(err == nil, "%s: encoding grid: %v", c, err)
			if st.raw[ci] == nil {
				st.grids[ci], st.raw[ci] = g, raw
			} else {
				b.check(bytes.Equal(raw, st.raw[ci]), "%s: replay %d simulated statistics that differ from the first", c, st.replays/len(cases)+1)
			}
			if b.tr != nil {
				assignLanes(recs)
				for i := range recs {
					recs[i].span = b.tr.add("explorer.point", sid, recs[i].lane, recs[i].start, recs[i].end)
				}
			}
			for _, r := range recs {
				k := pointKey(ci, r.cfg)
				st.lat[k] = append(st.lat[k], ms(r.end.Sub(r.start)))
			}
			st.recs = append(st.recs, recs...)
			st.reports = append(st.reports, rep)
		}
		if ci == len(cases)-1 {
			b.tr.close(rid)
			// Collect between rounds so the peak resident set reflects one
			// round's allocations, not how many rounds the host managed.
			runtime.GC()
		}
	}
	if st.replays%len(cases) != 0 {
		b.tr.close(rid)
	}
	st.wall = time.Since(start)
	h := sha256.New()
	for _, raw := range st.raw {
		h.Write(raw)
	}
	st.digest = hex.EncodeToString(h.Sum(nil))
	return st
}

// assignLanes draws concurrent points on separate worker lanes (1..n):
// each point takes the first lane that is free when it starts.
func assignLanes(recs []pointRec) {
	var free []time.Time
	for i := range recs {
		lane := -1
		for l, t := range free {
			if !t.After(recs[i].start) {
				lane = l
				break
			}
		}
		if lane < 0 {
			free = append(free, time.Time{})
			lane = len(free) - 1
		}
		free[lane] = recs[i].end
		recs[i].lane = lane + 1
	}
}

// simulate runs one design point directly through the sim layer, the
// way the sweep engine does for the point's hierarchy.
func simulate(ts *traceSet, w explorer.Workload, cfg sysmodel.Config) (*sim.Result, error) {
	if w == explorer.Multiprog {
		return sim.RunMultiprog(cfg, sim.Options{}, ts.procs, multiprog.Quantum(ts.scale.MultiprogRefs))
	}
	prog := ts.progs[progKey(w, cfg.Procs())]
	if prog == nil {
		return nil, fmt.Errorf("no %s trace for %d processors", w, cfg.Procs())
	}
	switch cfg.Hierarchy {
	case "private":
		return sim.RunPrivate(cfg, sim.Options{}, prog)
	case "hybrid":
		return sim.RunHybrid(cfg, sim.Options{}, prog)
	}
	return sim.Run(cfg, sim.Options{}, prog)
}

// simKind names the sim entry point a configuration exercises.
func simKind(w explorer.Workload, cfg sysmodel.Config) string {
	switch {
	case w == explorer.Multiprog:
		return "multiprog"
	case cfg.Hierarchy == "private" || cfg.Hierarchy == "hybrid":
		return cfg.Hierarchy
	case cfg.Assoc > 1:
		return "assoc"
	}
	return "shared"
}

// directReplay re-simulates every point of the grids with direct sim
// calls on the given number of goroutines, and checks each result
// equals the sweep's point. It returns each point's direct simulation
// time, keyed by case and configuration.
func directReplay(b *bench, cases []sweepCase, grids []*explorer.Grid, ts *traceSet, lanes, parent int) map[string]time.Duration {
	type job struct {
		ci int
		pt *explorer.Point
	}
	var jobs []job
	for ci, g := range grids {
		if g == nil {
			continue
		}
		for _, row := range g.Points {
			for _, pt := range row {
				jobs = append(jobs, job{ci, pt})
			}
		}
	}
	out := map[string]time.Duration{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	next := make(chan job)
	for lane := 1; lane <= lanes; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for j := range next {
				c := cases[j.ci]
				t0 := time.Now()
				res, err := simulate(ts, c.w, j.pt.Config)
				t1 := time.Now()
				b.tr.add("sim."+simKind(c.w, j.pt.Config), parent, lane, t0, t1)
				var same bool
				if err == nil {
					got, _ := json.Marshal(res)
					want, _ := json.Marshal(j.pt.Result)
					same = string(got) == string(want)
				}
				mu.Lock()
				b.attempted++
				b.check(err == nil && same, "%s at %+v: direct sim result differs from the sweep's point (err %v)", c, j.pt.Config, err)
				out[pointKey(j.ci, j.pt.Config)] = t1.Sub(t0)
				mu.Unlock()
			}
		}(lane)
	}
	for _, j := range jobs {
		next <- j
	}
	close(next)
	wg.Wait()
	return out
}

func pointKey(ci int, cfg sysmodel.Config) string { return fmt.Sprintf("%d/%+v", ci, cfg) }

// sweepWorkload is the untraced run of sweep-shared or sweep-axes.
func sweepWorkload(b *bench) error {
	cases := sweepCases(b.workload)
	ts, setup, _, err := setupTraces(b, sweepScale(b.seed), cases, 0)
	if err != nil {
		return err
	}
	st := runSweeps(context.Background(), b, cases, ts, b.seconds, 0)
	b.set("peak_rss_mb", peakRSSMB())
	directReplay(b, cases, st.grids, ts, checkLanes, 0)
	b.digest = st.digest
	b.set("setup_s", setup)
	b.setSweepE2E(st)
	return nil
}

// setSweepE2E derives the end-to-end metrics of a sweep phase. One
// operation is one design point. Rates are per round (roundTime), and
// each point's latency is its median over the replays, so a stretch of
// the run that a busy host slowed moves none of them.
func (b *bench) setSweepE2E(st *sweepStats) {
	round := st.roundTime()
	var refs uint64
	points := 0
	for _, g := range st.grids {
		if g == nil {
			continue
		}
		for _, row := range g.Points {
			for _, pt := range row {
				refs += pt.Result.Refs
				points++
			}
		}
	}
	b.set("sim_refs_per_us", float64(refs)/(float64(round.Microseconds())*parallelism))
	b.set("op_per_s", float64(points)/round.Seconds())
	var lat []float64
	for _, l := range st.lat {
		lat = append(lat, median(l))
	}
	b.setLatency(lat)
}

// roundTime is the time of one round of the grids: the sum over the
// cases of each case's median replay time.
func (st *sweepStats) roundTime() time.Duration {
	var round time.Duration
	for _, ts := range st.times {
		xs := make([]float64, len(ts))
		for i, d := range ts {
			xs[i] = float64(d)
		}
		round += time.Duration(median(xs))
	}
	return round
}

// setSimStats sums the exact simulated statistics over the grids.
func (b *bench) setSimStats(grids []*explorer.Grid) {
	var cycles, refs, rstall, wstall, bstall, fetches, invals uint64
	var agg cache.Stats
	for _, g := range grids {
		if g == nil {
			continue
		}
		for _, row := range g.Points {
			for _, pt := range row {
				r := pt.Result
				cycles += r.Cycles
				refs += r.Refs
				rstall += r.TotalReadStall()
				bstall += r.TotalBankStall()
				for _, v := range r.WriteStall {
					wstall += v
				}
				s := r.AggregateSCC()
				agg.Add(&s)
				fetches += r.Snoop.Fetches
				invals += r.Snoop.Invalidations
			}
		}
	}
	b.set("sim.cycles", float64(cycles))
	b.set("sim.refs", float64(refs))
	b.set("sim.read_stall_cycles", float64(rstall))
	b.set("sim.write_stall_cycles", float64(wstall))
	b.set("scc.read_miss_rate", agg.ReadMissRate())
	b.set("scc.bank_stall_cycles", float64(bstall))
	b.set("snoop.bus_fetches", float64(fetches))
	b.set("snoop.invalidations", float64(invals))
}
