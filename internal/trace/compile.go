package trace

import (
	"slices"

	"sccsim/internal/mem"
	"sccsim/internal/sysmodel"
)

// Compiled is the execution form of a Program: per-phase, per-processor
// views of the program's own streams plus the footprint metadata the
// simulator needs to size its coherence state up front. Compiling costs
// one validation pass and one counting pass and copies no reference: the
// streams stay resident once, in the Program (Builder.Finish already
// trimmed them to their length), and the precomputed totals let
// Program.Refs and the presence-table sizing skip their own passes over
// the trace.
//
// A Compiled is as immutable as the Program it came from: the simulator
// and the sweep engine only read it, so one compiled program may back any
// number of concurrent simulations.
type Compiled struct {
	// Name and Procs mirror the source program's header.
	Name  string
	Procs int
	// PhaseNames[i] is phase i's name.
	PhaseNames []string
	// Streams[i][p] is Program.Phases[i].Streams[p] clipped to its
	// length (cap == len, so an append by a consumer reallocates instead
	// of writing into the program's backing array). It is shaped exactly
	// like Program.Phases[i].Streams, so consumers switch between the two
	// forms without code changes.
	Streams [][][]mem.Ref
	// StreamRefs[i][p] counts the memory references (excluding Idle) in
	// phase i / processor p's stream.
	StreamRefs [][]uint64

	refs    uint64
	maxLine uint32
}

// Refs returns the total number of memory references (excluding Idle),
// precomputed at compile time.
func (c *Compiled) Refs() uint64 { return c.refs }

// MaxLineIndex returns the largest cache-line index any memory reference
// in the program touches. The simulator uses it to size the coherence
// bus's direct-indexed presence table (see snoop.Bus.ReserveLines).
func (c *Compiled) MaxLineIndex() uint32 { return c.maxLine }

// Compile validates the program and indexes its streams. The result is
// memoized on the Program (safely for concurrent callers), so every
// design point of a sweep that shares one cached trace also shares one
// compiled form and pays for validation and counting exactly once.
func Compile(p *Program) (*Compiled, error) {
	if c := p.compiled.Load(); c != nil {
		return c, nil
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	c := &Compiled{
		Name:       p.Name,
		Procs:      p.Procs,
		PhaseNames: make([]string, len(p.Phases)),
		Streams:    make([][][]mem.Ref, len(p.Phases)),
		StreamRefs: make([][]uint64, len(p.Phases)),
	}
	for i, ph := range p.Phases {
		c.PhaseNames[i] = ph.Name
		c.Streams[i] = make([][]mem.Ref, len(ph.Streams))
		c.StreamRefs[i] = make([]uint64, len(ph.Streams))
		for pr, st := range ph.Streams {
			c.Streams[i][pr] = slices.Clip(st)
			var n uint64
			for _, r := range st {
				if r.Kind == mem.Idle {
					continue
				}
				n++
				if li := sysmodel.LineIndex(r.Addr); li > c.maxLine {
					c.maxLine = li
				}
			}
			c.StreamRefs[i][pr] = n
			c.refs += n
		}
	}
	// First compile wins; concurrent compilers of the same program
	// produce identical views, so either result is fine to share.
	if !p.compiled.CompareAndSwap(nil, c) {
		return p.compiled.Load(), nil
	}
	return c, nil
}
