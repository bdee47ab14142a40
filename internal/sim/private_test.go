package sim

import (
	"testing"

	"sccsim/internal/mem"
	"sccsim/internal/sysmodel"
	"sccsim/internal/trace"
	"sccsim/internal/verify"
)

func TestRunPrivateRejectsBadInput(t *testing.T) {
	cfg := sysmodel.Config{Clusters: 1, ProcsPerCluster: 2, SCCBytes: 8192, LoadLatency: 3, Assoc: 1}
	if _, err := RunPrivate(cfg, Options{}, prog(1, nil)); err == nil {
		t.Error("accepted mismatched processor count")
	}
	big := sysmodel.Config{Clusters: 16, ProcsPerCluster: 4, SCCBytes: 8192, LoadLatency: 4, Assoc: 1}
	if _, err := RunPrivate(big, Options{}, prog(64)); err == nil {
		t.Error("accepted 64 caches (bitmask limit is 32)")
	}
	tiny := sysmodel.Config{Clusters: 1, ProcsPerCluster: 8, SCCBytes: 64, LoadLatency: 4, Assoc: 1}
	if _, err := RunPrivate(tiny, Options{}, prog(8)); err == nil {
		t.Error("accepted an 8-byte private cache")
	}
}

func TestPrivateIntraClusterTransfer(t *testing.T) {
	// Proc 0 loads a line; proc 1 in the same cluster then reads it:
	// the second miss must cost IntraClusterLatency, not MemLatency.
	cfg := sysmodel.Config{Clusters: 1, ProcsPerCluster: 2, SCCBytes: 8192, LoadLatency: 3, Assoc: 1}
	p := prog(2,
		[]mem.Ref{rd(0x100, 0)},
		[]mem.Ref{rd(0x100, 300)},
	)
	r, err := RunPrivate(cfg, Options{}, p)
	if err != nil {
		t.Fatal(err)
	}
	if r.ReadStall[0] != sysmodel.MemLatency {
		t.Errorf("first miss stalled %d, want %d", r.ReadStall[0], sysmodel.MemLatency)
	}
	if r.ReadStall[1] != IntraClusterLatency {
		t.Errorf("intra-cluster miss stalled %d, want %d", r.ReadStall[1], IntraClusterLatency)
	}
	if r.Snoop.IntraClusterFetches != 1 {
		t.Errorf("IntraClusterFetches = %d, want 1", r.Snoop.IntraClusterFetches)
	}
}

func TestPrivateInterClusterStillSlow(t *testing.T) {
	cfg := sysmodel.Config{Clusters: 2, ProcsPerCluster: 1, SCCBytes: 8192, LoadLatency: 2, Assoc: 1}
	p := prog(2,
		[]mem.Ref{rd(0x100, 0)},
		[]mem.Ref{rd(0x100, 300)},
	)
	r, err := RunPrivate(cfg, Options{}, p)
	if err != nil {
		t.Fatal(err)
	}
	if r.ReadStall[1] != sysmodel.MemLatency {
		t.Errorf("inter-cluster miss stalled %d, want %d", r.ReadStall[1], sysmodel.MemLatency)
	}
}

func TestPrivateIntraClusterSharingInvalidates(t *testing.T) {
	// THE structural difference from the shared cache: two processors in
	// the same cluster writing one line ping-pong it between their
	// private caches — invalidations that the SCC avoids entirely.
	cfg := sysmodel.Config{Clusters: 1, ProcsPerCluster: 2, SCCBytes: 8192, LoadLatency: 3, Assoc: 1}
	mk := func() *trace.Program {
		return prog(2,
			[]mem.Ref{wr(0x100, 0), wr(0x100, 600), wr(0x100, 600)},
			[]mem.Ref{wr(0x100, 300), wr(0x100, 600), wr(0x100, 600)},
		)
	}
	priv, err := RunPrivate(cfg, Options{}, mk())
	if err != nil {
		t.Fatal(err)
	}
	shared, err := Run(cfg, Options{}, mk())
	if err != nil {
		t.Fatal(err)
	}
	if priv.Snoop.Invalidations < 4 {
		t.Errorf("private caches: %d invalidations, want ping-pong (>= 4)", priv.Snoop.Invalidations)
	}
	if shared.Snoop.Invalidations != 0 {
		t.Errorf("shared cache: %d invalidations, want 0", shared.Snoop.Invalidations)
	}
}

func TestPrivateNoBankConflicts(t *testing.T) {
	cfg := sysmodel.Config{Clusters: 1, ProcsPerCluster: 2, SCCBytes: 8192, LoadLatency: 3, Assoc: 1}
	var s0, s1 []mem.Ref
	for i := 0; i < 50; i++ {
		s0 = append(s0, rd(0x100, 0))
		s1 = append(s1, rd(0x100, 0))
	}
	r, err := RunPrivate(cfg, Options{}, prog(2, s0, s1))
	if err != nil {
		t.Fatal(err)
	}
	if r.TotalBankStall() != 0 {
		t.Errorf("private caches recorded %d bank-stall cycles", r.TotalBankStall())
	}
}

func TestPrivateSharedCapacityComparison(t *testing.T) {
	// A single processor streaming a working set larger than its private
	// slice but smaller than the whole SCC: the shared organization must
	// win (the paper's capacity argument for shared caches).
	cfg := sysmodel.Config{Clusters: 1, ProcsPerCluster: 4, SCCBytes: 32 * 1024, LoadLatency: 4, Assoc: 1}
	mk := func() *trace.Program {
		var s []mem.Ref
		// 16 KB working set: fits the 32 KB SCC, not an 8 KB private slice.
		for pass := 0; pass < 10; pass++ {
			for i := 0; i < 1024; i++ {
				s = append(s, rd(0x100000+uint32(i*sysmodel.LineSize), 2))
			}
		}
		return prog(4, s)
	}
	priv, err := RunPrivate(cfg, Options{}, mk())
	if err != nil {
		t.Fatal(err)
	}
	shared, err := Run(cfg, Options{}, mk())
	if err != nil {
		t.Fatal(err)
	}
	if shared.Cycles >= priv.Cycles {
		t.Errorf("shared SCC (%d cycles) not faster than private slices (%d) on a big working set",
			shared.Cycles, priv.Cycles)
	}
}

func TestPrivateWriteBufferStalls(t *testing.T) {
	cfg := sysmodel.Config{Clusters: 1, ProcsPerCluster: 1, SCCBytes: 8192, LoadLatency: 2, Assoc: 1}
	var s []mem.Ref
	for i := 0; i < 4; i++ {
		s = append(s, wr(uint32(0x1000+i*sysmodel.LineSize), 0))
	}
	r, err := RunPrivate(cfg, Options{WriteBufferDepth: 1}, prog(1, s))
	if err != nil {
		t.Fatal(err)
	}
	if r.WriteStall[0] == 0 {
		t.Error("depth-1 private write buffer never stalled")
	}
}

func TestPrivateDeterminism(t *testing.T) {
	cfg := sysmodel.Config{Clusters: 2, ProcsPerCluster: 2, SCCBytes: 8192, LoadLatency: 3, Assoc: 1}
	mk := sharingProg4
	a, err := RunPrivate(cfg, Options{}, mk())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunPrivate(cfg, Options{}, mk())
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.Snoop.Invalidations != b.Snoop.Invalidations {
		t.Error("RunPrivate not deterministic")
	}
}

// TestPrivateWarmupExcludesStatistics: the private hierarchy honours
// Options.WarmupRefs like every other — the first N references are
// excluded from the statistics while timing is untouched.
func TestPrivateWarmupExcludesStatistics(t *testing.T) {
	cfg := sysmodel.Config{Clusters: 2, ProcsPerCluster: 2, SCCBytes: 8192, LoadLatency: 3, Assoc: 1}
	p := sharingProg4()
	plain, err := RunPrivate(cfg, Options{}, p)
	if err != nil {
		t.Fatal(err)
	}
	const n = 500
	warm, err := RunPrivate(cfg, Options{WarmupRefs: n, Verify: &verify.Options{}}, p)
	if err != nil {
		t.Fatal(err)
	}
	if warm.WarmupExcluded != n {
		t.Errorf("WarmupExcluded = %d, want %d", warm.WarmupExcluded, n)
	}
	if warm.Cycles != plain.Cycles || warm.Refs != plain.Refs {
		t.Errorf("warmup changed timing: cycles %d vs %d, refs %d vs %d",
			warm.Cycles, plain.Cycles, warm.Refs, plain.Refs)
	}
	ps, ws := plain.AggregateSCC(), warm.AggregateSCC()
	// Every reference here is one plain cache access.
	if got, want := ws.TotalAccesses(), ps.TotalAccesses()-n; got != want {
		t.Errorf("post-warmup accesses = %d, want %d", got, want)
	}
	if ws.TotalMisses() >= ps.TotalMisses() || warm.Snoop.Fetches >= plain.Snoop.Fetches {
		t.Errorf("warmup did not reduce misses (%d vs %d) or fetches (%d vs %d)",
			ws.TotalMisses(), ps.TotalMisses(), warm.Snoop.Fetches, plain.Snoop.Fetches)
	}
	if warm.TotalReadStall() >= plain.TotalReadStall() {
		t.Errorf("warmup did not reduce read stall: %d vs %d", warm.TotalReadStall(), plain.TotalReadStall())
	}
}

// sharingProg4 is a four-processor program of reads and writes over a
// shared 128-line footprint.
func sharingProg4() *trace.Program {
	streams := make([][]mem.Ref, 4)
	for p := 0; p < 4; p++ {
		for i := 0; i < 300; i++ {
			k := mem.Read
			if (i+p)%4 == 0 {
				k = mem.Write
			}
			streams[p] = append(streams[p], mem.Ref{
				Addr: 0x10000 + uint32((i*5+p*3)%128)*sysmodel.LineSize,
				Kind: k, Gap: uint16(i % 5),
			})
		}
	}
	return &trace.Program{Name: "det", Procs: 4,
		Phases: []trace.Phase{{Name: "x", Streams: streams}}}
}
