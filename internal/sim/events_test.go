package sim

import (
	"reflect"
	"testing"

	"sccsim/internal/mem"
	"sccsim/internal/obs"
	"sccsim/internal/sysmodel"
	"sccsim/internal/trace"
)

// recorder is a test tracer that tallies events by kind.
type recorder struct {
	events []obs.Event
	byKind [NumEventKinds]uint64
}

func (r *recorder) Emit(e obs.Event) {
	r.events = append(r.events, e)
	r.byKind[e.Kind]++
}

func TestEventKindNames(t *testing.T) {
	for k := 0; k < NumEventKinds; k++ {
		if EventKindNames[k] == "" {
			t.Errorf("EventKindNames[%d] is empty", k)
		}
		if EventKind(k).String() != EventKindNames[k] {
			t.Errorf("EventKind(%d).String() = %q", k, EventKind(k).String())
		}
	}
	if EventKind(200).String() == "" {
		t.Error("out-of-range kind has empty String")
	}
}

// TestTracerSeesCacheActivity checks the event stream agrees with the
// run's cache statistics: one hit/miss event per SCC access of each kind.
func TestTracerSeesCacheActivity(t *testing.T) {
	// Two reads of one line (miss then hit), a write miss, a write hit.
	p := prog(1, []mem.Ref{
		rd(0x1000, 0), rd(0x1004, 0), wr(0x2000, 0), wr(0x2004, 0),
	})
	rec := &recorder{}
	res, err := Run(cfg1(4096), Options{Tracer: rec}, p)
	if err != nil {
		t.Fatal(err)
	}
	scc := res.AggregateSCC()
	readMisses := scc.Misses[mem.Read]
	readHits := scc.Accesses[mem.Read] - readMisses
	writeMisses := scc.Misses[mem.Write]
	writeHits := scc.Accesses[mem.Write] - writeMisses

	if got := rec.byKind[EvReadMiss]; got != readMisses {
		t.Errorf("read-miss events = %d, stats say %d", got, readMisses)
	}
	if got := rec.byKind[EvReadHit]; got != readHits {
		t.Errorf("read-hit events = %d, stats say %d", got, readHits)
	}
	if got := rec.byKind[EvWriteMiss]; got != writeMisses {
		t.Errorf("write-miss events = %d, stats say %d", got, writeMisses)
	}
	if got := rec.byKind[EvWriteHit]; got != writeHits {
		t.Errorf("write-hit events = %d, stats say %d", got, writeHits)
	}
	// Every SCC miss produced a bus fetch event on the bus track.
	if got := rec.byKind[EvBusFetch]; got != res.Snoop.Fetches {
		t.Errorf("bus-fetch events = %d, snoop stats say %d", got, res.Snoop.Fetches)
	}
	for _, e := range rec.events {
		if EventKind(e.Kind) == EvBusFetch && e.Track != 1 {
			t.Errorf("bus fetch on track %d, want 1 (procs..procs+clusters-1)", e.Track)
		}
	}
}

// TestTracerLockEvents checks lock acquire/release pairing and that spin
// iterations appear as duration events.
func TestTracerLockEvents(t *testing.T) {
	lock := uint32(0x8000)
	p := &trace.Program{
		Name: "locks", Procs: 2,
		Phases: []trace.Phase{{Name: "p0", Streams: [][]mem.Ref{
			{
				{Addr: lock, Kind: mem.Lock},
				rd(0x1000, 200), // hold the lock for a while
				{Addr: lock, Kind: mem.Unlock},
			},
			{
				{Addr: lock, Kind: mem.Lock, Gap: 10},
				{Addr: lock, Kind: mem.Unlock},
			},
		}}},
	}
	cfg := sysmodel.Config{
		Clusters: 1, ProcsPerCluster: 2, SCCBytes: 4096,
		LoadLatency: 2, Assoc: 1,
	}
	rec := &recorder{}
	res, err := Run(cfg, Options{Tracer: rec}, p)
	if err != nil {
		t.Fatal(err)
	}
	if rec.byKind[EvLockAcquire] != 2 || rec.byKind[EvLockRelease] != 2 {
		t.Errorf("acquire/release = %d/%d, want 2/2",
			rec.byKind[EvLockAcquire], rec.byKind[EvLockRelease])
	}
	if rec.byKind[EvLockSpin] != res.LockSpins {
		t.Errorf("spin events = %d, stats say %d", rec.byKind[EvLockSpin], res.LockSpins)
	}
	for _, e := range rec.events {
		if EventKind(e.Kind) == EvLockSpin && e.Dur == 0 {
			t.Error("spin event has zero duration")
		}
	}
}

// TestTracerDoesNotPerturbSimulation: in every hierarchy the traced
// run must produce byte-identical results to the untraced run, and every
// event must land on a valid track — bus events on the requesting
// processor's cluster bus, also when the bus agent is a private cache.
func TestTracerDoesNotPerturbSimulation(t *testing.T) {
	mk := func() *trace.Program {
		streams := make([][]mem.Ref, 4)
		for p := range streams {
			// Imbalanced: processor p issues 100*(p+1) references.
			for i := uint32(0); i < 100*uint32(p+1); i++ {
				if p%2 == 0 {
					streams[p] = append(streams[p], rd(0x1000+i*32, uint16(i%5)))
				} else {
					streams[p] = append(streams[p], wr(0x1000+i*64, uint16(i%3)))
				}
			}
		}
		return &trace.Program{Name: "perturb", Procs: 4,
			Phases: []trace.Phase{{Name: "p0", Streams: streams}}}
	}
	for _, h := range []string{sysmodel.HierarchyShared, sysmodel.HierarchyPrivate, sysmodel.HierarchyHybrid} {
		cfg := sysmodel.Config{
			Clusters: 2, ProcsPerCluster: 2, SCCBytes: 4096,
			LoadLatency: 3, Assoc: 1, Hierarchy: h,
		}
		if h == sysmodel.HierarchyHybrid {
			cfg.L1Bytes = 512
		}
		plain, err := Run(cfg, Options{}, mk())
		if err != nil {
			t.Fatal(err)
		}
		rec := &recorder{}
		traced, err := Run(cfg, Options{Tracer: rec, Metrics: obs.NewRegistry()}, mk())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plain, traced) {
			t.Errorf("%s: traced run diverged: cycles %d vs %d, refs %d vs %d",
				h, plain.Cycles, traced.Cycles, plain.Refs, traced.Refs)
		}
		if len(rec.events) == 0 {
			t.Errorf("%s: tracer saw no events", h)
		}
		// Barrier waits appear for the processors that finish early.
		if rec.byKind[EvBarrierWait] == 0 {
			t.Errorf("%s: no barrier-wait events in an imbalanced run", h)
		}
		if rec.byKind[EvBusFetch] != traced.Snoop.Fetches {
			t.Errorf("%s: bus-fetch events = %d, snoop stats say %d",
				h, rec.byKind[EvBusFetch], traced.Snoop.Fetches)
		}
		procs := int32(cfg.Procs())
		for _, e := range rec.events {
			switch EventKind(e.Kind) {
			case EvBusFetch, EvBusInvalidate, EvBusWriteBack:
				if e.Track < procs || e.Track >= procs+int32(cfg.Clusters) {
					t.Fatalf("%s: %s on track %d, want a cluster bus track in [%d, %d)",
						h, EventKind(e.Kind), e.Track, procs, procs+int32(cfg.Clusters))
				}
			default:
				if e.Track < 0 || e.Track >= procs {
					t.Fatalf("%s: %s on track %d, want a processor track", h, EventKind(e.Kind), e.Track)
				}
			}
		}
	}
}

// TestMetricsHistogramsPopulated: a run with a registry records stall
// histograms without altering results.
func TestMetricsHistogramsPopulated(t *testing.T) {
	reg := obs.NewRegistry()
	var refs []mem.Ref
	for i := uint32(0); i < 64; i++ {
		refs = append(refs, rd(0x1000+i*512, 0))
	}
	if _, err := Run(cfg1(4096), Options{Metrics: reg}, prog(1, refs)); err != nil {
		t.Fatal(err)
	}
	if n := reg.Histogram("sim.read_miss_cycles", obs.CycleBuckets).Snapshot().Count; n == 0 {
		t.Error("read-miss histogram is empty after a missing run")
	}
}

// TestMultiprogSwitchEvents: context switches produce EvSwitch events
// matching Result.Switches.
func TestMultiprogSwitchEvents(t *testing.T) {
	mkProc := func(name string, base uint32) Process {
		var refs []mem.Ref
		for i := uint32(0); i < 50; i++ {
			refs = append(refs, rd(base+i*32, 1))
		}
		return Process{Name: name, Refs: refs}
	}
	procs := []Process{mkProc("a", 0x1000), mkProc("b", 0x20000), mkProc("c", 0x40000)}
	rec := &recorder{}
	res, err := RunMultiprog(cfg1(4096), Options{Tracer: rec, SwitchPenalty: 10}, procs, 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Switches == 0 {
		t.Fatal("expected context switches with 3 processes on 1 processor")
	}
	if rec.byKind[EvSwitch] != res.Switches {
		t.Errorf("switch events = %d, stats say %d", rec.byKind[EvSwitch], res.Switches)
	}
}
