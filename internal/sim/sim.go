// Package sim is the detailed multiprocessor cache simulator at the heart
// of the reproduction (Section 2.2.2 of the paper). It replays a
// trace.Program on a configured system — clusters of processors sharing
// banked SCCs, kept coherent over a snoopy invalidation bus — and accounts
// execution time per processor. The same machine, with a per-processor
// private cache or a write-through L1 front end in place of or in front
// of the SCC, models the other cluster organizations (hierarchy.go).
//
// Timing model (matching the paper's stated assumptions):
//
//   - Processors execute one instruction per cycle between memory
//     references (the load-latency penalty of deeper pipelines is applied
//     afterwards via the pipeline model, exactly as Section 5 does).
//   - An SCC access waits for its bank if the bank is busy; the bank then
//     services it in one cycle. SCC hits cost no additional stall.
//   - A miss fetches the line from memory or another SCC in a fixed 100
//     cycles. Read misses stall the processor; writes retire into a
//     finite write buffer and only stall when the buffer is full.
//   - Writes to lines shared by other clusters broadcast an invalidation.
//   - Processors synchronize at phase barriers; barrier wait is idle time.
//
// Processor streams are interleaved in global virtual-time order, the
// same conservative interleaving Tango-Lite provides.
//
// Concurrency contract: Run and RunMultiprog treat their inputs —
// trace.Program and []Process — as immutable; they only ever read the
// reference streams, and all mutable run state (caches, bus, write
// buffers, locks, statistics) is allocated per call. It is therefore
// safe to call Run concurrently from multiple goroutines against one
// shared Program (the design-space engine in internal/explorer does
// exactly this), and every such run returns identical results. This
// contract is enforced by a -race test (TestRunSharedProgramConcurrent).
package sim

import (
	"fmt"
	"slices"

	"sccsim/internal/cache"
	"sccsim/internal/mem"
	"sccsim/internal/obs"
	"sccsim/internal/scc"
	"sccsim/internal/snoop"
	"sccsim/internal/sysmodel"
	"sccsim/internal/trace"
	"sccsim/internal/verify"
)

// Options tunes simulator behaviour beyond the architectural Config.
// The zero value is the paper's model.
type Options struct {
	// WriteBufferDepth is the number of outstanding writes a cluster (a
	// processor, with private caches) can have before further writes
	// stall. 0 means the default of 8.
	// Negative means an infinite write buffer.
	WriteBufferDepth int
	// BusOccupancy, when positive, makes each bus transaction hold the
	// bus for that many cycles (ablation; the paper uses pure latency).
	BusOccupancy int
	// SwitchPenalty is the cycle cost charged when the multiprogramming
	// scheduler switches a processor to a different process (models
	// kernel overhead plus icache refill; see internal/icache for a
	// derived value). Ignored by Run.
	SwitchPenalty uint64
	// MemBanks/MemBankOccupancy, when positive, enable the banked
	// main-memory ablation: fetches to a busy memory bank queue instead
	// of completing in a flat 100 cycles.
	MemBanks         int
	MemBankOccupancy int
	// VictimEntries, when positive, attaches a fully-associative victim
	// buffer of that many lines to each SCC — an extension that recovers
	// most of the direct-mapped conflict misses.
	VictimEntries int
	// WarmupRefs, when positive, zeroes all statistics after that many
	// references have executed, excluding cold-start effects from the
	// reported numbers (a methodology option; the paper measures whole
	// runs, which is the default here too). Timing is unaffected — only
	// the counters reset.
	WarmupRefs uint64
	// Tracer, when non-nil, receives a timeline event for every memory
	// reference, stall, bus transaction, lock operation and scheduling
	// decision (see EventKind). The tracer must be exclusive to this run.
	// nil (the default) disables tracing at near-zero cost.
	Tracer Tracer
	// Metrics, when non-nil, accumulates stall-duration histograms
	// (sim.bank_wait_cycles, sim.read_miss_cycles, sim.wb_stall_cycles)
	// into the registry. Registries are safe to share across concurrent
	// runs; nil (the default) disables collection at near-zero cost.
	Metrics *obs.Registry
	// Verify, when non-nil, attaches the coherence invariant checker
	// (internal/verify) to the run: every bus transaction is checked
	// against the protocol invariants as it happens, and at end of run
	// the presence table is audited against actual cache residency and
	// the statistics against their conservation laws. A violation makes
	// Run/RunMultiprog return an error describing it. The Options value
	// is read-only and may be shared across concurrent runs; nil (the
	// default) disables verification at near-zero cost — the same
	// nil-disabled contract as Tracer and Metrics.
	Verify *verify.Options
}

// DefaultWriteBufferDepth is the per-agent write-buffer depth used when
// Options.WriteBufferDepth is zero.
const DefaultWriteBufferDepth = 8

func (o Options) wbDepth() int {
	switch {
	case o.WriteBufferDepth == 0:
		return DefaultWriteBufferDepth
	case o.WriteBufferDepth < 0:
		return 1 << 30
	default:
		return o.WriteBufferDepth
	}
}

// Result is the outcome of one simulation run. It owns all its data:
// the statistics are snapshots copied out of the machine when the run
// ends, so a retained Result (a sweep grid, a result cache entry) keeps
// none of the run's caches, tag arrays or coherence state alive.
type Result struct {
	// Config is the design point that was simulated.
	Config sysmodel.Config
	// Cycles is the program execution time: the finish time of the
	// slowest processor.
	Cycles uint64
	// Refs is the number of memory references simulated.
	Refs uint64
	// ProcFinish[p] is processor p's finish time.
	ProcFinish []uint64
	// ReadStall[p] is cycles processor p spent stalled on read misses.
	ReadStall []uint64
	// WriteStall[p] is cycles processor p stalled on a full write buffer.
	WriteStall []uint64
	// BankStall[p] is cycles processor p waited for busy SCC banks.
	BankStall []uint64
	// BarrierWait[p] is cycles processor p idled at phase barriers (or,
	// for multiprogramming, idled with no runnable process).
	BarrierWait []uint64
	// PhaseCycles[i] is the duration of phase i.
	PhaseCycles []uint64
	// SCC[i] is cluster i's cache statistics; SCCBank[i] its contention
	// statistics. For the private hierarchy both are per processor: SCC[p]
	// is processor p's private cache and SCCBank[p] a degenerate
	// single-bank record of its accesses.
	SCC     []*cache.Stats
	SCCBank []*scc.Stats
	// L1 is the per-processor L1 statistics of the hybrid hierarchy; nil
	// (and omitted from JSON) for every other organization.
	L1 []*cache.Stats `json:",omitempty"`
	// Snoop is the coherence-bus statistics.
	Snoop *snoop.Stats
	// Switches is the number of context switches (multiprogramming only).
	Switches uint64
	// LockStall[p] is cycles processor p spent spinning on held locks.
	LockStall []uint64
	// LockSpins counts spin iterations across all processors.
	LockSpins uint64
	// WarmupExcluded is the number of warmup references whose statistics
	// were discarded (0 unless Options.WarmupRefs was set).
	WarmupExcluded uint64
}

// AggregateSCC returns the sum of all clusters' cache statistics.
func (r *Result) AggregateSCC() cache.Stats {
	var s cache.Stats
	for _, cs := range r.SCC {
		s.Add(cs)
	}
	return s
}

// ReadMissRate returns the system-wide SCC read miss rate — the statistic
// the paper's Table 4 reports.
func (r *Result) ReadMissRate() float64 {
	s := r.AggregateSCC()
	return s.ReadMissRate()
}

// TotalReadStall returns read-miss stall cycles summed over processors.
func (r *Result) TotalReadStall() uint64 {
	var t uint64
	for _, v := range r.ReadStall {
		t += v
	}
	return t
}

// TotalBankStall returns bank-conflict stall cycles summed over processors.
func (r *Result) TotalBankStall() uint64 {
	var t uint64
	for _, v := range r.BankStall {
		t += v
	}
	return t
}

// SpinInterval is the re-test period of the test-and-test-and-set spin
// loop, in cycles.
const SpinInterval = 12

// lockTable tracks test-and-set lock ownership by lock-word address.
type lockTable struct {
	held map[uint32]int
}

func newLockTable() *lockTable { return &lockTable{held: make(map[uint32]int)} }

// holder returns the owning processor and whether the lock is held.
func (lt *lockTable) holder(addr uint32) (int, bool) {
	p, ok := lt.held[addr]
	return p, ok
}

func (lt *lockTable) acquire(addr uint32, p int) { lt.held[addr] = p }
func (lt *lockTable) release(addr uint32)        { delete(lt.held, addr) }

// system is the assembled machine for one run. Every hierarchy is the
// same machine, built from data (the oracle in internal/verify mirrors
// its shape):
//
//   - agent[p] maps processor p to its bus agent — the cache the
//     coherence bus, the write buffers, the checker and the per-cache
//     statistics are indexed by. In the shared and hybrid hierarchies it
//     is p's cluster SCC; in the private hierarchy it is p's own cache.
//   - The back end is a banked SCC per cluster (sccs) or an unbanked
//     private cache per processor (private); exactly one is non-nil.
//   - The hybrid hierarchy adds an optional per-processor L1 front end
//     (l1) that filters read hits before the back end.
type system struct {
	cfg  sysmodel.Config
	opts Options
	// agent[p] is processor p's bus agent, precomputed so the per-ref hot
	// path indexes a table instead of dividing by ProcsPerCluster.
	agent []int32
	// sccs[a] is cluster a's banked SCC (shared and hybrid hierarchies),
	// private[a] processor a's private cache (private hierarchy).
	sccs    []*scc.SCC
	private []*cache.Cache
	// l1[p] and l1Stats[p] are processor p's write-through L1 and its
	// statistics (hybrid hierarchy only; nil otherwise).
	l1      []*cache.Cache
	l1Stats []cache.Stats
	bus     *snoop.Bus
	// wbPending[a] holds completion times of agent a's in-flight buffered
	// writes, a FIFO ring (issue times are non-decreasing): one buffer per
	// cluster, or per processor in the private hierarchy.
	wbPending [][]uint64
	wbHead    []int
	locks     *lockTable
	res       *Result
	// fastTags[a] is agent a's tag store when its SCC qualifies for the
	// fused direct-mapped access path (scc.DirectTags), nil otherwise.
	fastTags []*cache.Cache

	// Instrumentation (all nil when disabled; every use is behind a
	// nil check so the uninstrumented hot path pays only the branch).
	tr           Tracer
	histBankWait *obs.LocalHistogram
	histReadMiss *obs.LocalHistogram
	histWBStall  *obs.LocalHistogram
	ck           *verify.Checker
}

func newSystem(cfg sysmodel.Config, opts Options, procs int) (*system, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &system{cfg: cfg, opts: opts}
	hier := cfg.HierarchyKind()
	ppc := cfg.ProcsPerCluster
	s.agent = make([]int32, procs)
	for p := range s.agent {
		s.agent[p] = int32(p / ppc)
	}

	var invs []snoop.Invalidator
	var cls []verify.Cluster
	if hier == sysmodel.HierarchyPrivate {
		// One cache of SCCBytes/ProcsPerCluster per processor (equal total
		// capacity per cluster), each its own bus agent.
		if procs > 32 {
			return nil, fmt.Errorf("sim: private-cache mode supports at most 32 caches, config has %d", procs)
		}
		s.private = make([]*cache.Cache, procs)
		for p := range s.private {
			c, err := cache.NewWith(cfg.SCCBytes/ppc, cfg.Assoc, cfg.Line(), cfg.ReplPolicy())
			if err != nil {
				return nil, fmt.Errorf("sim: private cache: %w", err)
			}
			s.private[p] = c
			s.agent[p] = int32(p)
			invs = append(invs, c)
			cls = append(cls, c)
		}
	} else {
		s.sccs = make([]*scc.SCC, cfg.Clusters)
		for i := range s.sccs {
			sc, err := scc.NewWith(cfg.SCCBytes, cfg.Assoc, cfg.Banks(), cfg.Line(), cfg.ReplPolicy())
			if err != nil {
				return nil, err
			}
			if opts.VictimEntries > 0 {
				sc.EnableVictimBuffer(opts.VictimEntries)
			}
			s.sccs[i] = sc
			invs = append(invs, sc)
			cls = append(cls, sc)
		}
	}
	agents := len(invs)
	s.bus = snoop.New(invs)
	s.bus.SetLineBytes(cfg.Line())
	s.bus.Occupancy = opts.BusOccupancy
	s.bus.MemBanks = opts.MemBanks
	s.bus.MemBankOccupancy = opts.MemBankOccupancy
	s.wbPending = make([][]uint64, agents)
	s.wbHead = make([]int, agents)
	s.locks = newLockTable()
	s.fastTags = make([]*cache.Cache, agents)
	for i, sc := range s.sccs {
		s.fastTags[i] = sc.DirectTags()
	}
	// cluster[a] is bus agent a's cluster.
	cluster := make([]int, agents)
	for a := range cluster {
		cluster[a] = a
		if s.private != nil {
			cluster[a] = a / ppc
		}
	}
	if s.private != nil {
		// Misses served by a same-cluster cache cross the fast
		// intra-cluster bus.
		s.bus.GroupOf = cluster
		s.bus.IntraLatency = IntraClusterLatency
	}
	if hier == sysmodel.HierarchyHybrid {
		if err := s.attachL1(); err != nil {
			return nil, err
		}
	}

	if opts.Verify != nil {
		// With private caches each cache stands in as a "cluster": the
		// bus indexes presence per agent.
		s.ck = verify.NewChecker(opts.Verify, s.bus, cls, opts.VictimEntries > 0 && s.sccs != nil)
		s.ck.SetLineBytes(cfg.Line())
		s.bus.Verifier = s.ck
	}

	s.tr = opts.Tracer
	if s.tr != nil {
		// Bus transactions land on the requesting agent's cluster bus
		// track, laid out after the processor tracks.
		tr := s.tr
		s.bus.Hook = func(kind snoop.TxnKind, start, dur uint64, agent int, addr uint32) {
			var k EventKind
			switch kind {
			case snoop.TxnFetch:
				k = EvBusFetch
			case snoop.TxnInvalidate:
				k = EvBusInvalidate
			default:
				k = EvBusWriteBack
			}
			tr.Emit(obs.Event{TS: start, Dur: dur, Track: busTrack(procs, cluster[agent]),
				Kind: uint8(k), Addr: addr})
		}
	}
	if m := opts.Metrics; m != nil {
		// Local staging buffers: per-event observations stay plain
		// arithmetic in this run's goroutine, merged into the shared
		// registry once at the end of the run (see flushMetrics), so
		// parallel sweep workers never contend on the histogram atomics.
		s.histBankWait = m.Histogram("sim.bank_wait_cycles", obs.CycleBuckets).Local()
		s.histReadMiss = m.Histogram("sim.read_miss_cycles", obs.CycleBuckets).Local()
		s.histWBStall = m.Histogram("sim.wb_stall_cycles", obs.CycleBuckets).Local()
	}

	s.res = &Result{
		Config:      cfg,
		ProcFinish:  make([]uint64, procs),
		ReadStall:   make([]uint64, procs),
		WriteStall:  make([]uint64, procs),
		BankStall:   make([]uint64, procs),
		BarrierWait: make([]uint64, procs),
		LockStall:   make([]uint64, procs),
		SCC:         make([]*cache.Stats, agents),
		SCCBank:     make([]*scc.Stats, agents),
	}
	return s, nil
}

// warmupReset clears the statistics accumulated so far; replay invokes
// it exactly once, immediately after the Options.WarmupRefs'th reference
// completes (cold-start exclusion). Timing state is untouched.
func (s *system) warmupReset() {
	for _, sc := range s.sccs {
		*sc.CacheStats() = cache.Stats{}
		sc.ResetStats()
	}
	for _, c := range s.private {
		*c.Stats() = cache.Stats{}
	}
	for p := range s.l1Stats {
		s.l1Stats[p] = cache.Stats{}
	}
	*s.bus.Stats() = snoop.Stats{}
	for p := range s.res.ReadStall {
		s.res.ReadStall[p] = 0
		s.res.WriteStall[p] = 0
		s.res.BankStall[p] = 0
		s.res.LockStall[p] = 0
	}
	s.res.LockSpins = 0
	s.res.WarmupExcluded = s.res.Refs
	if s.ck != nil {
		s.ck.OnWarmupReset()
	}
}

// access performs processor p's memory reference at time now, returning
// the time at which the processor may proceed and whether the reference
// must be retried (a spin iteration on a held lock).
func (s *system) access(p int, now uint64, r mem.Ref) (uint64, bool) {
	switch r.Kind {
	case mem.Lock:
		// Test-and-test-and-set: spin reading the cached lock word until
		// it is free, then claim it with an atomic write. In the hybrid
		// hierarchy the spins hit the L1 copy until the holder's release
		// write invalidates it.
		t := s.ref(p, now, r.Addr, mem.Read)
		if holder, held := s.locks.holder(r.Addr); held && holder != p {
			s.res.LockSpins++
			s.res.LockStall[p] += SpinInterval
			if s.tr != nil {
				s.tr.Emit(obs.Event{TS: t, Dur: SpinInterval, Track: int32(p),
					Kind: uint8(EvLockSpin), Addr: r.Addr})
			}
			return t + SpinInterval, true
		}
		t = s.ref(p, t, r.Addr, mem.Write)
		s.locks.acquire(r.Addr, p)
		if s.tr != nil {
			s.tr.Emit(obs.Event{TS: t, Track: int32(p), Kind: uint8(EvLockAcquire), Addr: r.Addr})
		}
		return t, false
	case mem.Unlock:
		t := s.ref(p, now, r.Addr, mem.Write)
		s.locks.release(r.Addr)
		if s.tr != nil {
			s.tr.Emit(obs.Event{TS: t, Track: int32(p), Kind: uint8(EvLockRelease), Addr: r.Addr})
		}
		return t, false
	default:
		// ref, spelled out: it is over the inlining budget, and the plain
		// load/store is the per-reference hot path.
		if s.l1 != nil {
			return s.l1Access(p, now, r.Addr, r.Kind), false
		}
		return s.memAccess(p, now, r.Addr, r.Kind), false
	}
}

// ref performs a plain load or store: through processor p's L1 front end
// when the hierarchy has one, else straight to its bus agent.
func (s *system) ref(p int, now uint64, addr uint32, kind mem.Kind) uint64 {
	if s.l1 != nil {
		return s.l1Access(p, now, addr, kind)
	}
	return s.memAccess(p, now, addr, kind)
}

// memAccess performs a plain load or store through processor p's bus
// agent: its cluster's SCC, or its private cache.
func (s *system) memAccess(p int, now uint64, addr uint32, kind mem.Kind) uint64 {
	a := int(s.agent[p])
	if s.ck != nil {
		// Shadow-count the access so FinishRun can assert the tag store
		// accounted every access exactly once (hits + misses == accesses).
		s.ck.OnAccess(a)
	}
	if tags := s.fastTags[a]; tags != nil {
		// Fused fast path for the paper's SCC configuration
		// (direct-mapped, no victim buffer): bank arbitration and tag
		// probe inline — an ordinary hit runs call-free instead of
		// threading a Result struct through two layers. Semantically
		// identical to the general path below; the oracle diffs pin
		// that.
		t := s.sccs[a].BankStart(now, addr)
		if t != now {
			s.bankStallAt(p, now, t-now, addr)
		}
		if tags.HitDM(addr, kind) {
			if kind == mem.Write && s.bus.MaybeShared(addr, a) {
				// Write hit to a possibly-shared line: invalidate other
				// clusters' copies. The MaybeShared probe keeps the common
				// private-line write hit call-free.
				s.bus.WriteShared(t, a, addr)
			}
			if s.tr != nil {
				s.emitHit(p, t, addr, kind)
			}
			return t
		}
		cr := tags.MissDM(addr, kind)
		return s.missFrom(p, a, t, addr, kind, cr.Evicted, cr.EvictedDirty)
	}

	// General path: a private cache is unbanked, so its access starts at
	// once; an SCC arbitrates its bank first.
	t := now
	var cr cache.Result
	if s.private != nil {
		cr = s.private[a].Access(addr, kind)
	} else {
		ar := s.sccs[a].Access(now, addr, kind)
		if wait := ar.Wait(now); wait > 0 {
			s.bankStallAt(p, now, wait, addr)
		}
		t = ar.Start
		cr = cache.Result{Hit: ar.Hit, Evicted: ar.Evicted, EvictedDirty: ar.EvictedDirty}
	}
	if cr.Hit {
		if kind == mem.Write {
			// Write hit: invalidate other agents' copies if shared.
			s.bus.WriteShared(t, a, addr)
		}
		if s.tr != nil {
			s.emitHit(p, t, addr, kind)
		}
		return t
	}
	return s.missFrom(p, a, t, addr, kind, cr.Evicted, cr.EvictedDirty)
}

// bankStallAt accounts a bank-arbitration wait for processor p.
func (s *system) bankStallAt(p int, now, wait uint64, addr uint32) {
	s.res.BankStall[p] += wait
	if s.tr != nil {
		s.tr.Emit(obs.Event{TS: now, Dur: wait, Track: int32(p),
			Kind: uint8(EvBankStall), Addr: addr})
	}
	if s.histBankWait != nil {
		s.histBankWait.Observe(wait)
	}
}

// emitHit traces a cache hit event.
func (s *system) emitHit(p int, t uint64, addr uint32, kind mem.Kind) {
	k := EvReadHit
	if kind == mem.Write {
		k = EvWriteHit
	}
	s.tr.Emit(obs.Event{TS: t, Track: int32(p), Kind: uint8(k), Addr: addr})
}

// missFrom completes agent a's miss whose service started at t: eviction
// notice, bus fetch, and read-stall or write-buffer accounting.
func (s *system) missFrom(p, a int, t uint64, addr uint32, kind mem.Kind,
	evicted uint32, evictedDirty bool) uint64 {

	if evicted != cache.EvictedNone {
		if s.l1 != nil {
			// Inclusion: the line leaves the cluster's L1s before the bus
			// learns of it, so a bus-level probe never finds an L1-only
			// copy.
			s.invalidateL1(a, evicted<<s.cfg.LineShift(), -1)
		}
		s.bus.Evicted(t, a, evicted, evictedDirty)
	}
	// Fetch over the bus. The refill's own bank cycle is not modeled as
	// future bank occupancy: the bank-free time is a scalar "busy until",
	// and reserving it through the whole 100-cycle fetch would wrongly
	// block the bank during the fetch (the SCC is non-blocking). The one
	// refill cycle is negligible against the 100-cycle transfer.
	ready := s.bus.Fetch(t, a, addr, kind)
	if kind == mem.Read {
		s.res.ReadStall[p] += ready - t
		if s.tr != nil {
			s.tr.Emit(obs.Event{TS: t, Dur: ready - t, Track: int32(p),
				Kind: uint8(EvReadMiss), Addr: addr})
		}
		if s.histReadMiss != nil {
			s.histReadMiss.Observe(ready - t)
		}
		return ready
	}
	// Write miss: retire into the write buffer; stall only if full.
	if s.tr != nil {
		s.tr.Emit(obs.Event{TS: t, Track: int32(p), Kind: uint8(EvWriteMiss), Addr: addr})
	}
	return s.bufferWrite(p, a, t, ready)
}

// bufferWrite records a write through agent a completing at ready and
// returns processor p's visible completion time (now, unless a's buffer
// is full).
func (s *system) bufferWrite(p, a int, now, ready uint64) uint64 {
	depth := s.opts.wbDepth()
	pend := s.wbPending[a]
	head := s.wbHead[a]
	// Drop entries that completed by now.
	for head < len(pend) && pend[head] <= now {
		head++
	}
	if head == len(pend) {
		pend = pend[:0]
		head = 0
	}
	if len(pend)-head >= depth {
		// Buffer full: stall until the oldest entry drains.
		wait := pend[head] - now
		s.res.WriteStall[p] += wait
		if s.tr != nil {
			s.tr.Emit(obs.Event{TS: now, Dur: wait, Track: int32(p),
				Kind: uint8(EvWriteBufStall)})
		}
		if s.histWBStall != nil {
			s.histWBStall.Observe(wait)
		}
		now = pend[head]
		head++
	}
	pend = append(pend, ready)
	s.wbPending[a] = pend
	s.wbHead[a] = head
	return now
}

// sched selects the processor with the earliest next-issue time,
// tie-broken by lowest id — exactly the order the id-keyed binary heap it
// replaced produced. It is a binary min-heap of single uint64 keys with
// the issue time in the high bits and the processor id in the low
// schedIDBits, so every comparison is one word compare on contiguous
// memory (the old heap chased ids[i] -> time[id] through two slices per
// comparison) and the id tie-break falls out of the packing for free.
// The packing caps issue times at 2^56 cycles — about 2.5 billion years
// of simulated time at the paper's clock — and processor counts at 256
// (the machine model tops out at 32).
type sched struct {
	keys []uint64
	// min mirrors keys[0] (schedEmpty when the heap is empty) so isMin —
	// the replay loop's per-reference test — is a field load and one
	// compare instead of a length check plus a bounds-checked index.
	min uint64
}

const schedIDBits = 8

// schedEmpty is min's value for an empty heap: larger than every real
// packed key (a key only reaches 2^64-1 at the 2^56-cycle time cap, far
// beyond any run), so isMin is unconditionally true, matching the "no
// one else is scheduled" case.
const schedEmpty = ^uint64(0)

func newSched(procs int) *sched {
	return &sched{keys: make([]uint64, 0, procs), min: schedEmpty}
}

// add schedules processor p to issue at time t.
func (s *sched) add(p int, t uint64) {
	k := t<<schedIDBits | uint64(p)
	if k < s.min {
		s.min = k
	}
	keys := append(s.keys, k)
	i := len(keys) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if keys[parent] <= k {
			break
		}
		keys[i] = keys[parent]
		i = parent
	}
	keys[i] = k
	s.keys = keys
}

// next removes and returns the processor with the earliest issue time and
// that time; p is -1 when none are scheduled.
func (s *sched) next() (p int, t uint64) {
	keys := s.keys
	if len(keys) == 0 {
		return -1, 0
	}
	top := keys[0]
	last := len(keys) - 1
	k := keys[last]
	keys = keys[:last]
	s.keys = keys
	if last > 0 {
		i := 0
		for {
			l := 2*i + 1
			if l >= last {
				break
			}
			if r := l + 1; r < last && keys[r] < keys[l] {
				l = r
			}
			if k <= keys[l] {
				break
			}
			keys[i] = keys[l]
			i = l
		}
		keys[i] = k
	}
	if last > 0 {
		s.min = keys[0]
	} else {
		s.min = schedEmpty
	}
	return int(top & (1<<schedIDBits - 1)), top >> schedIDBits
}

// isMin reports whether processor p issuing at time t would be the next
// processor the scheduler picks — i.e. whether p's packed key precedes
// every scheduled key. Packed keys are unique (the id is in the low
// bits), so strict < is exact, including the lowest-id tie-break.
// replay uses this to keep running the earliest processor without a
// push/pop round-trip per reference.
func (s *sched) isMin(p int, t uint64) bool {
	return t<<schedIDBits|uint64(p) < s.min
}

// replay drives barrier-delimited phase streams through an access
// function in global issue order, handling barriers and accounting into
// res. phases is the per-phase, per-processor stream table (a compiled
// program's Streams). The access function performs one memory
// reference for a processor at a time and returns when the processor
// may proceed.
// warmupAt, when nonzero, invokes reset exactly once, immediately after
// the warmupAt'th reference completes. A non-nil tracer receives a
// barrier-wait event per processor per phase.
func replay(phases [][][]mem.Ref, procs int, res *Result, tr Tracer,
	warmupAt uint64, reset func(),
	access func(p int, now uint64, r mem.Ref) (uint64, bool)) []uint64 {

	if procs == 1 {
		return replay1(phases, res, warmupAt, reset, access)
	}

	clock := make([]uint64, procs)
	pos := make([]int, procs)
	sc := newSched(procs)
	var phaseStart uint64

	for _, streams := range phases {
		for p := 0; p < procs; p++ {
			pos[p] = 0
			if len(streams[p]) > 0 {
				sc.add(p, clock[p]+uint64(streams[p][0].Gap))
			}
		}
		// Replay streams in global issue order: repeatedly advance the
		// processor whose next reference is earliest. The inner loop is a
		// run-ahead: after each reference, if the processor's next issue
		// time still precedes every scheduled key it keeps executing
		// without touching the heap — the order is identical to a full
		// push/pop per reference (isMin is the heap's own comparison),
		// but long stretches where one processor runs (the others parked
		// 100 cycles ahead by misses, or finished) cost no heap traffic.
		for {
			p, t := sc.next()
			if p < 0 {
				break
			}
			st := streams[p]
			for {
				r := st[pos[p]]
				if r.Kind != mem.Idle {
					t2, retry := access(p, t, r)
					if retry {
						// Spin iteration: re-issue the same reference later.
						clock[p] = t2
						if sc.isMin(p, t2) {
							t = t2
							continue
						}
						sc.add(p, t2)
						break
					}
					t = t2
					res.Refs++
					if warmupAt != 0 && res.Refs == warmupAt {
						reset()
					}
				}
				pos[p]++
				clock[p] = t
				if pos[p] == len(st) {
					break
				}
				nt := t + uint64(st[pos[p]].Gap)
				if !sc.isMin(p, nt) {
					sc.add(p, nt)
					break
				}
				t = nt
			}
		}
		// Barrier: everyone waits for the slowest processor.
		var maxT uint64
		for _, t := range clock {
			if t > maxT {
				maxT = t
			}
		}
		for p := range clock {
			if tr != nil && maxT > clock[p] {
				tr.Emit(obs.Event{TS: clock[p], Dur: maxT - clock[p], Track: int32(p),
					Kind: uint8(EvBarrierWait)})
			}
			res.BarrierWait[p] += maxT - clock[p]
			clock[p] = maxT
		}
		res.PhaseCycles = append(res.PhaseCycles, maxT-phaseStart)
		phaseStart = maxT
	}
	return clock
}

// replay1 is the single-processor fast path: stream order is issue
// order, so no scheduler runs at all and barriers degenerate to phase
// accounting. Lock references cannot spin with one processor (access
// reports retry only when another processor holds the lock), but the
// retry loop is kept so the two paths share one contract.
func replay1(phases [][][]mem.Ref, res *Result, warmupAt uint64, reset func(),
	access func(p int, now uint64, r mem.Ref) (uint64, bool)) []uint64 {

	var now, phaseStart uint64
	for _, streams := range phases {
		for _, r := range streams[0] {
			now += uint64(r.Gap)
			if r.Kind == mem.Idle {
				continue
			}
			for {
				t, retry := access(0, now, r)
				now = t
				if !retry {
					break
				}
			}
			res.Refs++
			if warmupAt != 0 && res.Refs == warmupAt {
				reset()
			}
		}
		res.PhaseCycles = append(res.PhaseCycles, now-phaseStart)
		phaseStart = now
	}
	return []uint64{now}
}

// Run simulates a parallel program on the configured system; the
// hierarchy axis (cfg.Hierarchy) selects the paper's shared SCC,
// per-processor private caches, or the two-level hybrid. The program
// must have exactly cfg.Procs() streams per phase. Run never mutates
// prog, so concurrent Runs may share one Program (see the package
// comment's concurrency contract); the compiled form a Run memoizes on
// the program (trace.Compile — validation and footprint counting happen once
// per Program, not once per run) is itself immutable and shared the
// same way.
func Run(cfg sysmodel.Config, opts Options, prog *trace.Program) (*Result, error) {
	procs := cfg.Procs()
	if prog.Procs != procs {
		return nil, fmt.Errorf("sim: program %q generated for %d processors, config has %d",
			prog.Name, prog.Procs, procs)
	}
	comp, err := trace.Compile(prog)
	if err != nil {
		return nil, err
	}
	s, err := newSystem(cfg, opts, procs)
	if err != nil {
		return nil, err
	}
	return s.run(comp)
}

// run replays a compiled program on the assembled machine.
func (s *system) run(comp *trace.Compiled) (*Result, error) {
	s.bus.ReserveLines(reserveLines(comp.MaxLineIndex(), s.cfg.Line()))
	clock := replay(comp.Streams, len(s.agent), s.res, s.tr, s.opts.WarmupRefs, s.warmupReset, s.access)
	return s.result(clock, comp.Refs())
}

// result closes a run: final statistics, the metrics flush and, with
// verification enabled, the end-of-run audit against the trace's
// expected reference count.
func (s *system) result(clock []uint64, expectedRefs uint64) (*Result, error) {
	s.finish(clock)
	if s.ck != nil {
		if err := s.verifyFinish(expectedRefs); err != nil {
			return nil, err
		}
	}
	return s.res, nil
}

// flushMetrics merges the run's staged histogram batches into the
// shared registry.
func (s *system) flushMetrics() {
	s.histBankWait.Flush()
	s.histReadMiss.Flush()
	s.histWBStall.Flush()
}

// reserveLines converts a maximum line index measured at the paper's
// 16-byte granularity (what trace.Compile records) to the flat-table
// line count needed at the configured line size, rounding up so the
// whole footprint stays direct-indexed. Sizing is a pure optimization
// (the paged fallback keeps out-of-bound lines correct), but at the
// default line size the count is exactly the historical maxLine+1.
func reserveLines(maxLine16 uint32, lineBytes int) uint32 {
	n := ((uint64(maxLine16)+1)*sysmodel.LineSize + uint64(lineBytes) - 1) / uint64(lineBytes)
	if n > snoop.MaxFlatLines {
		n = snoop.MaxFlatLines
	}
	return uint32(n)
}

// verifyFinish runs the checker's end-of-run audit against the
// finished result; expectedRefs of 0 skips the trace-conservation check.
func (s *system) verifyFinish(expectedRefs uint64) error {
	f := verify.Final{
		Cycles:           s.res.Cycles,
		Refs:             s.res.Refs,
		ExpectedRefs:     expectedRefs,
		Cache:            s.res.SCC,
		BankAccessCycles: sysmodel.BankAccessCycles,
	}
	if s.sccs != nil {
		// Private caches have no banks, so the bank-occupancy law only
		// applies to SCCs.
		f.Bank = s.res.SCCBank
	}
	if err := s.ck.FinishRun(f); err != nil {
		return fmt.Errorf("sim: verification failed: %w", err)
	}
	return nil
}

// VerifyStats projects the result onto the surface the oracle simulator
// reports (verify.RunStats), for DiffRunStats comparisons. Statistics
// slices are deep-copied, so the projection is safe to hold after the
// result is discarded.
func (r *Result) VerifyStats() verify.RunStats {
	rs := verify.RunStats{
		Cycles:      r.Cycles,
		Refs:        r.Refs,
		LockSpins:   r.LockSpins,
		Switches:    r.Switches,
		ProcFinish:  append([]uint64(nil), r.ProcFinish...),
		ReadStall:   append([]uint64(nil), r.ReadStall...),
		WriteStall:  append([]uint64(nil), r.WriteStall...),
		BankStall:   append([]uint64(nil), r.BankStall...),
		BarrierWait: append([]uint64(nil), r.BarrierWait...),
		LockStall:   append([]uint64(nil), r.LockStall...),
		PhaseCycles: append([]uint64(nil), r.PhaseCycles...),
	}
	for _, cs := range r.SCC {
		rs.Cache = append(rs.Cache, *cs)
	}
	for _, bs := range r.SCCBank {
		b := *bs
		b.BankAccesses = append([]uint64(nil), bs.BankAccesses...)
		rs.Bank = append(rs.Bank, b)
	}
	if r.Snoop != nil {
		rs.Bus = *r.Snoop
	}
	for _, ls := range r.L1 {
		rs.L1 = append(rs.L1, *ls)
	}
	return rs
}

// finish copies final per-processor state and system statistics into the
// result and flushes the run's metrics.
func (s *system) finish(clock []uint64) {
	copy(s.res.ProcFinish, clock)
	for _, t := range clock {
		if t > s.res.Cycles {
			s.res.Cycles = t
		}
	}
	// Snapshot the statistics into storage the Result owns: the
	// machine's own stats records live inside its caches and bus, so
	// pointing at them would keep every tag array and the presence table
	// alive for as long as the Result is retained.
	cs := make([]cache.Stats, len(s.res.SCC))
	bs := make([]scc.Stats, len(s.res.SCCBank))
	for i, sc := range s.sccs {
		cs[i] = *sc.CacheStats()
		bs[i] = *sc.Stats()
		bs[i].BankAccesses = slices.Clone(bs[i].BankAccesses)
	}
	for p, c := range s.private {
		// A private cache has no banks; its SCCBank entry is a degenerate
		// single-bank record of its accesses.
		cs[p] = *c.Stats()
		bs[p] = scc.Stats{BankAccesses: []uint64{cs[p].TotalAccesses()}}
	}
	for i := range cs {
		s.res.SCC[i] = &cs[i]
		s.res.SCCBank[i] = &bs[i]
	}
	if s.l1 != nil {
		l1 := slices.Clone(s.l1Stats)
		s.res.L1 = make([]*cache.Stats, len(l1))
		for p := range l1 {
			s.res.L1[p] = &l1[p]
		}
	}
	bus := *s.bus.Stats()
	s.res.Snoop = &bus
	s.flushMetrics()
}
