package sim

import (
	"fmt"

	"sccsim/internal/cache"
	"sccsim/internal/mem"
	"sccsim/internal/sysmodel"
	"sccsim/internal/trace"
)

// The cluster organizations the hierarchy axis selects, all built by
// newSystem as one machine:
//
// Shared (the paper's design): the processors of a cluster share one
// banked SCC, the cluster is the bus agent.
//
// Private (the paper's alternative, Section 2.1): "separate per
// processor caches which are kept coherent over a high bandwidth
// intra-cluster bus. This organization has the advantage that the total
// cache bandwidth scales with the number of processors in the cluster.
// However, coherence misses and invalidation traffic ... can become a
// performance bottleneck." Each processor gets an unbanked private cache
// of SCCBytes / ProcsPerCluster (equal total capacity per cluster) and is
// its own bus agent with its own write buffer; every cache is kept
// coherent with write-invalidate snooping, and a miss is served from a
// same-cluster cache over the fast intra-cluster bus
// (IntraClusterLatency) or from memory/another cluster in MemLatency.
// Comparing the two on the same program reproduces the paper's
// shared-vs-private cluster cache argument: the shared cache keeps one
// copy per cluster and turns intra-cluster sharing into hits, while
// private caches duplicate lines and pay coherence misses.
//
// Hybrid (two-level): each processor gets a small private L1 in front of
// the cluster's shared SCC — the middle ground between the two. Model,
// precisely (the oracle in internal/verify mirrors it):
//
//   - The L1 is per processor, direct-mapped, write-through with no
//     write-allocate, Config.L1Size() bytes of Config.Line()-byte lines.
//   - An L1 read hit completes immediately: no SCC bank access, no
//     stall. An L1 read miss goes through the shared-SCC path exactly as
//     the shared hierarchy would (bank arbitration, hit or 100-cycle
//     fetch), then fills the L1; the displaced L1 line is clean by
//     construction and leaves silently.
//   - Every write goes through the shared-SCC path (write-through); the
//     writer's L1 copy stays valid (the write updates it), while
//     same-cluster sibling L1 copies are invalidated at issue time —
//     the intra-cluster analogue of the bus's write-invalidate protocol.
//   - Multi-level inclusion is enforced: a line leaving a cluster's SCC
//     (eviction or inter-cluster invalidation) is back-invalidated out
//     of that cluster's L1s. L1 residency therefore always implies SCC
//     residency, which is what lets the coherence presence table keep
//     one bit per cluster.
//
// All SCC, bank, bus and write-buffer behaviour is byte-identical to
// the shared hierarchy for the references that reach the SCC; the L1
// only filters read hits out of that stream.

// IntraClusterLatency is the cache-to-cache transfer latency within a
// cluster in the private-cache organization (cycles). The intra-cluster
// bus is fast but a transfer still costs a handful of cycles.
const IntraClusterLatency = 20

// RunPrivate simulates the private-per-processor-cache organization: Run
// with cfg.Hierarchy set to "private".
func RunPrivate(cfg sysmodel.Config, opts Options, prog *trace.Program) (*Result, error) {
	cfg.Hierarchy = sysmodel.HierarchyPrivate
	return Run(cfg, opts, prog)
}

// RunHybrid simulates the two-level organization: Run with
// cfg.Hierarchy set to "hybrid".
func RunHybrid(cfg sysmodel.Config, opts Options, prog *trace.Program) (*Result, error) {
	cfg.Hierarchy = sysmodel.HierarchyHybrid
	return Run(cfg, opts, prog)
}

// attachL1 installs the hybrid hierarchy's per-processor L1 front end and
// wraps each cluster's bus invalidator so an inter-cluster invalidation
// also kills the cluster's L1 copies (inclusion).
func (s *system) attachL1() error {
	procs := len(s.agent)
	s.l1 = make([]*cache.Cache, procs)
	s.l1Stats = make([]cache.Stats, procs)
	for p := range s.l1 {
		c, err := cache.NewWith(s.cfg.L1Size(), 1, s.cfg.Line(), sysmodel.ReplLRU)
		if err != nil {
			return fmt.Errorf("sim: hybrid L1: %w", err)
		}
		s.l1[p] = c
	}
	for c := range s.sccs {
		s.bus.SetInvalidator(c, l1Inv{s: s, c: c})
	}
	return nil
}

// l1Inv is cluster c's bus invalidator in the hybrid hierarchy. The
// presence/dirty answer is the SCC's: L1 copies are clean duplicates.
type l1Inv struct {
	s *system
	c int
}

func (h l1Inv) Invalidate(addr uint32) (present, dirty bool) {
	present, dirty = h.s.sccs[h.c].Invalidate(addr)
	h.s.invalidateL1(h.c, addr, -1)
	return present, dirty
}

// invalidateL1 drops addr's line from the L1s of cluster c's processors,
// all but processor except.
func (s *system) invalidateL1(c int, addr uint32, except int) {
	ppc := s.cfg.ProcsPerCluster
	for q := c * ppc; q < (c+1)*ppc; q++ {
		if q == except {
			continue
		}
		if was, _ := s.l1[q].Invalidate(addr); was {
			s.l1Stats[q].Invalidations++
		}
	}
}

// l1Access performs a plain load or store through processor p's L1: read
// hits complete at once, read misses fill the L1 after the SCC services
// them, and every write goes through to the SCC.
func (s *system) l1Access(p int, now uint64, addr uint32, kind mem.Kind) uint64 {
	st := &s.l1Stats[p]
	l1 := s.l1[p]
	if kind == mem.Write {
		// Write-through, no write-allocate: the writer's own copy stays
		// valid, sibling copies die, and the write always proceeds to the
		// SCC.
		st.Accesses[mem.Write]++
		if !l1.Probe(addr) {
			st.Misses[mem.Write]++
		}
		s.invalidateL1(int(s.agent[p]), addr, p)
		return s.memAccess(p, now, addr, mem.Write)
	}
	st.Accesses[kind]++
	if l1.Probe(addr) {
		return now
	}
	st.Misses[kind]++
	t := s.memAccess(p, now, addr, kind)
	if l1.FillDM(addr) {
		st.Evictions++
	}
	return t
}
