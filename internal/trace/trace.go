// Package trace is the bridge between the workload generators and the
// multiprocessor simulator — the role Tango-Lite plays in the paper:
// "we use Tango-Lite to supply properly interleaved reference events to a
// detailed multiprocessor cache simulator" (Section 2.2.2).
//
// A workload produces a Program: an ordered list of Phases separated by
// barriers. Within a phase every logical processor has an independent
// reference stream; the simulator replays the streams concurrently,
// merging them in per-processor virtual-time order, and synchronizes all
// processors at each phase boundary. This phase/barrier structure is how
// the SPLASH applications are written (ANL macro BARRIER), and it is what
// exposes load imbalance: a processor whose stream ends early idles at the
// barrier until the slowest processor arrives.
package trace

import (
	"fmt"
	"sync/atomic"

	"sccsim/internal/mem"
	"sccsim/internal/sysmodel"
)

// Phase is one barrier-delimited section of a parallel program.
type Phase struct {
	// Name identifies the phase for reporting ("force", "update", ...).
	Name string
	// Streams[p] is processor p's reference stream for this phase. A nil
	// or empty stream means the processor has no work in the phase.
	Streams [][]mem.Ref
}

// Program is a complete workload trace: what one run of the application
// does on every processor. A Program is immutable once its generator
// returns it: the simulator, the analyzer and the sweep engine only read
// it, so one Program may back any number of concurrent simulations (the
// explorer trace cache relies on this).
type Program struct {
	// Name identifies the workload ("barnes-hut", "mp3d", ...).
	Name string
	// Procs is the number of logical processors the trace was generated
	// for. Every phase has exactly Procs streams.
	Procs int
	// Phases in execution order.
	Phases []Phase

	// compiled memoizes the index built by Compile. Only Compile
	// writes it (and only after successful validation); read-only
	// operations like Validate and Refs never populate it, so they remain
	// side-effect free. Programs must be shared by pointer — the atomic
	// makes the memo safe under the concurrent sweep engine.
	compiled atomic.Pointer[Compiled]
}

// Validate checks structural invariants: every phase has one stream per
// processor, memory references carry addresses, and every lock acquired
// in a phase is released within the same phase by the same processor
// (holding a lock across a barrier would deadlock the replay).
func (p *Program) Validate() error {
	if p.Procs < 1 {
		return fmt.Errorf("trace: program %q has %d processors", p.Name, p.Procs)
	}
	for i, ph := range p.Phases {
		if len(ph.Streams) != p.Procs {
			return fmt.Errorf("trace: program %q phase %d (%s) has %d streams, want %d",
				p.Name, i, ph.Name, len(ph.Streams), p.Procs)
		}
		for pr, st := range ph.Streams {
			held := map[uint32]bool{}
			for j, r := range st {
				switch r.Kind {
				case mem.Read, mem.Write:
					if r.Addr == 0 {
						return fmt.Errorf("trace: program %q phase %d proc %d ref %d: zero address",
							p.Name, i, pr, j)
					}
				case mem.Lock:
					if r.Addr == 0 {
						return fmt.Errorf("trace: program %q phase %d proc %d ref %d: zero lock address",
							p.Name, i, pr, j)
					}
					if held[r.Addr] {
						return fmt.Errorf("trace: program %q phase %d proc %d ref %d: lock %#x re-acquired while held",
							p.Name, i, pr, j, r.Addr)
					}
					held[r.Addr] = true
				case mem.Unlock:
					if !held[r.Addr] {
						return fmt.Errorf("trace: program %q phase %d proc %d ref %d: unlock %#x without lock",
							p.Name, i, pr, j, r.Addr)
					}
					delete(held, r.Addr)
				case mem.Idle:
					// Idle refs carry no address.
				default:
					return fmt.Errorf("trace: program %q phase %d proc %d ref %d: bad kind %d",
						p.Name, i, pr, j, r.Kind)
				}
			}
			if len(held) > 0 {
				return fmt.Errorf("trace: program %q phase %d proc %d: %d lock(s) held at the barrier",
					p.Name, i, pr, len(held))
			}
		}
	}
	return nil
}

// Refs returns the total number of memory references (excluding Idle) in
// the program. If the program has been compiled the precomputed total is
// returned; otherwise the streams are counted.
func (p *Program) Refs() uint64 {
	if c := p.compiled.Load(); c != nil {
		return c.refs
	}
	var n uint64
	for _, ph := range p.Phases {
		for _, st := range ph.Streams {
			for _, r := range st {
				if r.Kind != mem.Idle {
					n++
				}
			}
		}
	}
	return n
}

// Builder accumulates one processor's reference stream for one phase.
// Workload code calls Compute/Read/Write as it executes its algorithm;
// the builder packs the result into compact refs.
type Builder struct {
	refs []mem.Ref
	gap  uint64
}

// NewBuilder returns a Builder with capacity for sizeHint refs.
func NewBuilder(sizeHint int) *Builder {
	return &Builder{refs: make([]mem.Ref, 0, sizeHint)}
}

// Compute records n non-memory instructions of work.
func (b *Builder) Compute(n int) {
	if n > 0 {
		b.gap += uint64(n)
	}
}

// flushGap emits Idle refs until the pending gap fits in a uint16.
func (b *Builder) flushGap() uint16 {
	for b.gap > 0xffff {
		b.refs = append(b.refs, mem.Ref{Kind: mem.Idle, Gap: 0xffff})
		b.gap -= 0xffff
	}
	g := uint16(b.gap)
	b.gap = 0
	return g
}

// Read records a load of addr.
func (b *Builder) Read(addr uint32) {
	g := b.flushGap()
	b.refs = append(b.refs, mem.Ref{Addr: addr, Kind: mem.Read, Gap: g})
}

// Write records a store to addr.
func (b *Builder) Write(addr uint32) {
	g := b.flushGap()
	b.refs = append(b.refs, mem.Ref{Addr: addr, Kind: mem.Write, Gap: g})
}

// Lock records a test-and-set acquisition of the lock word at addr.
func (b *Builder) Lock(addr uint32) {
	g := b.flushGap()
	b.refs = append(b.refs, mem.Ref{Addr: addr, Kind: mem.Lock, Gap: g})
}

// Unlock records a release of the lock word at addr.
func (b *Builder) Unlock(addr uint32) {
	g := b.flushGap()
	b.refs = append(b.refs, mem.Ref{Addr: addr, Kind: mem.Unlock, Gap: g})
}

// ReadRegion records loads covering every line of the size bytes at addr —
// a convenience for streaming through a record or array slice.
func (b *Builder) ReadRegion(addr, size uint32) {
	for a := sysmodel.LineAddr(addr); a < addr+size; a += sysmodel.LineSize {
		b.Read(a)
	}
}

// WriteRegion records stores covering every line of the size bytes at addr.
func (b *Builder) WriteRegion(addr, size uint32) {
	for a := sysmodel.LineAddr(addr); a < addr+size; a += sysmodel.LineSize {
		b.Write(a)
	}
}

// Finish returns the accumulated stream. Any trailing compute is emitted
// as Idle refs so barrier timing sees it. The stream is trimmed to its
// length (cap == len): the builder's append slack would otherwise stay
// resident for as long as the Program does, and the Program's streams are
// the only copy of the trace (Compile indexes them in place).
func (b *Builder) Finish() []mem.Ref {
	if b.gap > 0 {
		for b.gap > 0xffff {
			b.refs = append(b.refs, mem.Ref{Kind: mem.Idle, Gap: 0xffff})
			b.gap -= 0xffff
		}
		b.refs = append(b.refs, mem.Ref{Kind: mem.Idle, Gap: uint16(b.gap)})
		b.gap = 0
	}
	r := b.refs
	if cap(r) > len(r) {
		r = append(make([]mem.Ref, 0, len(r)), r...)
	}
	b.refs = nil
	return r
}

// Len returns the number of refs accumulated so far (excluding pending
// compute).
func (b *Builder) Len() int { return len(b.refs) }
