// The weak package arrived in Go 1.24, later than go.mod's language
// version; older toolchains skip this file.

//go:build go1.24

package sim

import (
	"runtime"
	"testing"
	"weak"

	"sccsim/internal/cache"
	"sccsim/internal/sysmodel"
	"sccsim/internal/trace"
)

// TestResultDoesNotRetainMachine: a Result owns its statistics, so
// holding it after the run must not keep the machine reachable — not the
// SCCs, their tag arrays, the private or L1 caches, nor the coherence
// bus with its presence table. A sweep retains every point's Result (and
// the service's result cache hundreds of them), so a Result pointing
// into its machine would pin megabytes per design point.
func TestResultDoesNotRetainMachine(t *testing.T) {
	for _, hier := range []string{sysmodel.HierarchyShared, sysmodel.HierarchyPrivate, sysmodel.HierarchyHybrid} {
		for _, multiprog := range []bool{false, true} {
			res, live := runWatched(t, hier, multiprog)
			runtime.GC()
			for _, name := range live() {
				t.Errorf("%s (multiprog %v): the Result keeps %s alive", hier, multiprog, name)
			}
			if res.Refs == 0 || res.Snoop.Fetches == 0 || len(res.SCC) == 0 {
				t.Fatalf("%s (multiprog %v): empty result %+v", hier, multiprog, res)
			}
			runtime.KeepAlive(res)
		}
	}
}

// runWatched runs a small program the way Run (or RunMultiprog) does and
// returns the Result with a probe listing the machine parts still alive,
// observed through weak pointers only.
func runWatched(t *testing.T, hier string, multiprog bool) (*Result, func() []string) {
	t.Helper()
	cfg := sysmodel.Config{
		Clusters: 2, ProcsPerCluster: 2, SCCBytes: 4096,
		LoadLatency: sysmodel.ImpliedLoadLatency(2), Assoc: 1, Hierarchy: hier,
	}
	if hier == sysmodel.HierarchyHybrid {
		cfg.L1Bytes = 256
	}
	s, err := newSystem(cfg, Options{}, cfg.Procs())
	if err != nil {
		t.Fatal(err)
	}
	type probe struct {
		name  string
		alive func() bool
	}
	var probes []probe
	watch := func(name string, alive func() bool) { probes = append(probes, probe{name, alive}) }
	for _, sc := range s.sccs {
		w, tags := weak.Make(sc), weak.Make(sc.DirectTags())
		watch("an SCC", func() bool { return w.Value() != nil })
		watch("an SCC tag array", func() bool { return tags.Value() != nil })
	}
	for _, c := range append(append([]*cache.Cache(nil), s.private...), s.l1...) {
		w := weak.Make(c)
		watch("a private or L1 cache", func() bool { return w.Value() != nil })
	}
	bus := weak.Make(s.bus)
	watch("the coherence bus", func() bool { return bus.Value() != nil })

	prog := sharingProg4()
	var res *Result
	if multiprog {
		var ps []Process
		for p, st := range prog.Phases[0].Streams {
			ps = append(ps, Process{Name: string(rune('a' + p)), Refs: st})
		}
		res, err = s.runMultiprog(ps, 500)
	} else {
		var comp *trace.Compiled
		if comp, err = trace.Compile(prog); err == nil {
			res, err = s.run(comp)
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	return res, func() []string {
		var live []string
		for _, p := range probes {
			if p.alive() {
				live = append(live, p.name)
			}
		}
		return live
	}
}
