package trace

import (
	"bytes"
	"reflect"
	"testing"

	"sccsim/internal/mem"
	"sccsim/internal/sysmodel"
)

// FuzzTraceRoundTrip feeds arbitrary bytes to the binary trace reader.
// Garbage must fail cleanly (error, no panic, no unbounded allocation —
// the length guards in io.go); anything the reader accepts must survive
// an encode/decode round trip unchanged, which pins the format against
// asymmetric reader/writer drift.
func FuzzTraceRoundTrip(f *testing.F) {
	var valid bytes.Buffer
	if err := compileFixture().EncodeTo(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:len(valid.Bytes())/2]) // truncated mid-stream
	f.Add(valid.Bytes()[:3])                    // truncated magic
	bad := append([]byte(nil), valid.Bytes()...)
	copy(bad, "XXXX") // bad magic
	f.Add(bad)
	f.Add([]byte{})
	f.Add([]byte("SCCT")) // magic only, missing header

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ReadProgram(bytes.NewReader(data))
		if err != nil {
			return // rejected input: fine, as long as it didn't panic
		}
		var out bytes.Buffer
		if err := p.EncodeTo(&out); err != nil {
			t.Fatalf("accepted program failed to re-encode: %v", err)
		}
		p2, err := ReadProgram(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded program failed to read back: %v", err)
		}
		if p2.Name != p.Name || p2.Procs != p.Procs || !reflect.DeepEqual(p2.Phases, p.Phases) {
			t.Fatal("round trip changed the program")
		}
		checkCompiled(t, p)
	})
}

// checkCompiled compiles an accepted program and checks the compiled
// views and their metadata against a naive count over the program's
// streams.
func checkCompiled(t *testing.T, p *Program) {
	t.Helper()
	c, err := Compile(p)
	if err != nil {
		t.Fatalf("a program ReadProgram accepted failed to compile: %v", err)
	}
	var refs uint64
	var maxLine uint32
	for i, ph := range p.Phases {
		if c.PhaseNames[i] != ph.Name {
			t.Fatalf("phase %d name %q, want %q", i, c.PhaseNames[i], ph.Name)
		}
		for pr, st := range ph.Streams {
			got := c.Streams[i][pr]
			if len(got) != len(st) || cap(got) != len(got) || (len(st) > 0 && &got[0] != &st[0]) {
				t.Fatalf("phase %d proc %d: compiled stream is not the program's, clipped", i, pr)
			}
			var n uint64
			for _, r := range st {
				if r.Kind == mem.Idle {
					continue
				}
				n++
				maxLine = max(maxLine, r.Addr/sysmodel.LineSize)
			}
			if c.StreamRefs[i][pr] != n {
				t.Fatalf("StreamRefs[%d][%d] = %d, want %d", i, pr, c.StreamRefs[i][pr], n)
			}
			refs += n
		}
	}
	if c.Refs() != refs || p.Refs() != refs {
		t.Fatalf("Refs: compiled %d, program %d, want %d", c.Refs(), p.Refs(), refs)
	}
	if c.MaxLineIndex() != maxLine {
		t.Fatalf("MaxLineIndex = %d, want %d", c.MaxLineIndex(), maxLine)
	}
}
