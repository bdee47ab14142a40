// Oracle cross-checks for the widened design space: the private and
// hybrid hierarchies over the full procs-per-cluster x SCC-size grid,
// and a sampled grid over the line-size, associativity and replacement
// axes, for every workload. As in oracle_test.go, the real runs execute
// with the invariant checker enabled, so every point is held to the
// per-transaction coherence laws and the end-of-run audit as well as to
// the independent map-based model.
package explorer_test

import (
	"fmt"
	"testing"

	"sccsim/internal/explorer"
	"sccsim/internal/sim"
	"sccsim/internal/sysmodel"
	"sccsim/internal/verify"
	"sccsim/internal/workload/multiprog"
)

// hierarchyGrid runs the full paper grid under the given hierarchy for
// every parallel workload and diffs each point against the oracle.
func hierarchyGrid(t *testing.T, hierarchy string) {
	s := explorer.QuickScale()
	for _, w := range explorer.ParallelWorkloads {
		w := w
		t.Run(string(w), func(t *testing.T) {
			t.Parallel()
			for _, ppc := range sysmodel.ProcsPerClusterSweep {
				prog, err := explorer.GenerateParallel(w, sysmodel.DefaultClusters*ppc, s)
				if err != nil {
					t.Fatal(err)
				}
				for _, size := range gridSizes(t) {
					cfg := sysmodel.Default(ppc, size)
					cfg.Hierarchy = hierarchy
					res, err := sim.Run(cfg, sim.Options{Verify: &verify.Options{}}, prog)
					if err != nil {
						t.Fatalf("ppc=%d scc=%d: %v", ppc, size, err)
					}
					oracle, err := verify.RunOracle(cfg, prog, verify.OracleOptions{})
					if err != nil {
						t.Fatalf("ppc=%d scc=%d: oracle: %v", ppc, size, err)
					}
					diffAgainstOracle(t, res, oracle)
					if t.Failed() {
						t.Fatalf("oracle diverged at %s ppc=%d scc=%d", w, ppc, size)
					}
				}
			}
		})
	}
}

func TestOracleMatchesSimulatorPrivateGrid(t *testing.T) {
	hierarchyGrid(t, sysmodel.HierarchyPrivate)
}

func TestOracleMatchesSimulatorHybridGrid(t *testing.T) {
	hierarchyGrid(t, sysmodel.HierarchyHybrid)
}

// axisSample is one sampled point of the line/assoc/repl/hierarchy grid.
type axisSample struct {
	hierarchy string
	lineBytes int
	assoc     int
	repl      string
	l1Bytes   int
}

func (a axisSample) String() string {
	h := a.hierarchy
	if h == "" {
		h = sysmodel.HierarchyShared
	}
	return fmt.Sprintf("%s-line%d-assoc%d-%s", h, a.lineBytes, a.assoc, a.repl)
}

// axisSamples covers every hierarchy, both replacement policies,
// non-default line sizes and associativities, in combination.
var axisSamples = []axisSample{
	{hierarchy: sysmodel.HierarchyShared, lineBytes: 32, assoc: 2, repl: sysmodel.ReplLRU},
	{hierarchy: sysmodel.HierarchyShared, lineBytes: 64, assoc: 4, repl: sysmodel.ReplRandom},
	{hierarchy: sysmodel.HierarchyShared, lineBytes: 16, assoc: 8, repl: sysmodel.ReplRandom},
	{hierarchy: sysmodel.HierarchyPrivate, lineBytes: 32, assoc: 2, repl: sysmodel.ReplLRU},
	{hierarchy: sysmodel.HierarchyPrivate, lineBytes: 16, assoc: 4, repl: sysmodel.ReplRandom},
	{hierarchy: sysmodel.HierarchyHybrid, lineBytes: 32, assoc: 2, repl: sysmodel.ReplRandom},
	{hierarchy: sysmodel.HierarchyHybrid, lineBytes: 16, assoc: 4, repl: sysmodel.ReplLRU, l1Bytes: 2048},
}

// TestOracleMatchesSimulatorAxisSamples sweeps the sampled axis grid for
// the three parallel workloads at a fixed machine shape.
func TestOracleMatchesSimulatorAxisSamples(t *testing.T) {
	s := explorer.QuickScale()
	const ppc = 2
	size := sysmodel.SCCSizes[0]
	for _, w := range explorer.ParallelWorkloads {
		w := w
		t.Run(string(w), func(t *testing.T) {
			t.Parallel()
			prog, err := explorer.GenerateParallel(w, sysmodel.DefaultClusters*ppc, s)
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range axisSamples {
				cfg := sysmodel.Default(ppc, size)
				cfg.Hierarchy = a.hierarchy
				cfg.LineBytes = a.lineBytes
				cfg.Assoc = a.assoc
				cfg.Repl = a.repl
				cfg.L1Bytes = a.l1Bytes
				res, err := sim.Run(cfg, sim.Options{Verify: &verify.Options{}}, prog)
				if err != nil {
					t.Fatalf("%s: %v", a, err)
				}
				oracle, err := verify.RunOracle(cfg, prog, verify.OracleOptions{})
				if err != nil {
					t.Fatalf("%s: oracle: %v", a, err)
				}
				diffAgainstOracle(t, res, oracle)
				if t.Failed() {
					t.Fatalf("oracle diverged at %s %s", w, a)
				}
			}
		})
	}
}

// TestOracleMatchesSimulatorAxisSamplesMultiprog sweeps the same axis
// samples — every hierarchy included — for the multiprogramming
// workload.
func TestOracleMatchesSimulatorAxisSamplesMultiprog(t *testing.T) {
	s := explorer.QuickScale()
	refs := s.MultiprogRefs
	quantum := multiprog.Quantum(refs)
	procs, err := multiprog.Generate(multiprog.Params{RefsPerApp: refs, Seed: s.Seed})
	if err != nil {
		t.Fatal(err)
	}
	oprocs := make([]verify.Process, len(procs))
	for i, p := range procs {
		oprocs[i] = verify.Process{Name: p.Name, Refs: p.Refs}
	}
	for _, a := range axisSamples {
		cfg := sysmodel.Config{
			Clusters: 1, ProcsPerCluster: 4, SCCBytes: sysmodel.SCCSizes[0],
			LoadLatency: sysmodel.ImpliedLoadLatency(4),
			LineBytes:   a.lineBytes, Assoc: a.assoc, Repl: a.repl,
			Hierarchy: a.hierarchy, L1Bytes: a.l1Bytes,
		}
		res, err := sim.RunMultiprog(cfg, sim.Options{Verify: &verify.Options{}}, procs, quantum)
		if err != nil {
			t.Fatalf("%s: %v", a, err)
		}
		oracle, err := verify.RunOracleMultiprog(cfg, oprocs, quantum, verify.OracleOptions{})
		if err != nil {
			t.Fatalf("%s: oracle: %v", a, err)
		}
		diffAgainstOracle(t, res, oracle)
		if t.Failed() {
			t.Fatalf("oracle diverged at multiprog %s", a)
		}
	}
}
