package trace

import (
	"testing"

	"sccsim/internal/mem"
	"sccsim/internal/sysmodel"
)

// compileFixture builds a small two-phase, two-processor program with
// idle refs, uneven streams, a known footprint, and one stream with
// spare capacity (as a hand-built program may have) that compiling must
// clip.
func compileFixture() *Program {
	return &Program{
		Name:  "fixture",
		Procs: 2,
		Phases: []Phase{
			{Name: "build", Streams: [][]mem.Ref{
				append(make([]mem.Ref, 0, 8),
					mem.Ref{Addr: 0x100, Kind: mem.Read, Gap: 3},
					mem.Ref{Kind: mem.Idle, Gap: 7},
					mem.Ref{Addr: 0x2000, Kind: mem.Write},
				),
				{
					{Addr: 0x110, Kind: mem.Read},
				},
			}},
			{Name: "solve", Streams: [][]mem.Ref{
				{},
				{
					{Addr: 0x40, Kind: mem.Lock},
					{Addr: 0x9000, Kind: mem.Write, Gap: 1},
					{Addr: 0x40, Kind: mem.Unlock},
				},
			}},
		},
	}
}

func TestCompileLayoutAndMetadata(t *testing.T) {
	p := compileFixture()
	c, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	if c.Name != p.Name || c.Procs != p.Procs {
		t.Fatalf("header mismatch: %q/%d vs %q/%d", c.Name, c.Procs, p.Name, p.Procs)
	}
	// Streams must be the program's own slices, clipped to their length
	// (so an append through a view cannot write into the program):
	// compiling copies no reference.
	for i, ph := range p.Phases {
		if c.PhaseNames[i] != ph.Name {
			t.Errorf("phase %d name %q, want %q", i, c.PhaseNames[i], ph.Name)
		}
		for pr, st := range ph.Streams {
			got := c.Streams[i][pr]
			if len(got) != len(st) {
				t.Fatalf("phase %d proc %d stream has %d refs, want %d", i, pr, len(got), len(st))
			}
			if len(got) > 0 && &got[0] != &st[0] {
				t.Errorf("phase %d proc %d stream is a copy, not the program's stream", i, pr)
			}
			if cap(got) != len(got) {
				t.Errorf("phase %d proc %d stream has cap %d for len %d", i, pr, cap(got), len(got))
			}
		}
	}
	// Footprint metadata: 6 non-idle refs, max line from 0x9000.
	if c.Refs() != 6 {
		t.Errorf("Refs() = %d, want 6", c.Refs())
	}
	if want := sysmodel.LineIndex(0x9000); c.MaxLineIndex() != want {
		t.Errorf("MaxLineIndex() = %d, want %d", c.MaxLineIndex(), want)
	}
	if got := c.StreamRefs[0][0]; got != 2 {
		t.Errorf("StreamRefs[0][0] = %d, want 2 (idle excluded)", got)
	}
	if got := c.StreamRefs[1][1]; got != 3 {
		t.Errorf("StreamRefs[1][1] = %d, want 3", got)
	}
}

func TestCompileMemoizes(t *testing.T) {
	p := compileFixture()
	c1, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Fatal("second Compile returned a different object; memo not used")
	}
}

func TestProgramRefsAgreesWithCompiled(t *testing.T) {
	p := compileFixture()
	slow := p.Refs() // pre-compile: counting pass
	if _, err := Compile(p); err != nil {
		t.Fatal(err)
	}
	if fast := p.Refs(); fast != slow {
		t.Fatalf("Refs() changed after compile: %d vs %d", fast, slow)
	}
}

func TestCompileRejectsInvalidProgram(t *testing.T) {
	p := &Program{Name: "bad", Procs: 2, Phases: []Phase{
		{Name: "p", Streams: [][]mem.Ref{{}}}, // 1 stream, want 2
	}}
	if _, err := Compile(p); err == nil {
		t.Fatal("Compile accepted a program Validate rejects")
	}
	if p.compiled.Load() != nil {
		t.Fatal("failed Compile populated the memo")
	}
}
