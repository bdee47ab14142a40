package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"sccsim/internal/mem"
)

// Binary trace serialization, so generated traces can be stored, diffed,
// and replayed by external tooling. The format is little-endian:
//
//	magic "SCCT" | version u32 | nameLen u32 | name | procs u32 |
//	phases u32 | per phase: nameLen u32 | name | per proc:
//	refs u32 | refs x 8 bytes (addr u32, gap u16, kind u8, pad u8)

const (
	traceMagic   = "SCCT"
	traceVersion = 1
)

// FormatVersion is the on-disk trace format version. Cache keys include
// it so a format change invalidates previously stored traces instead of
// tripping the version check at load time.
const FormatVersion = traceVersion

// EncodeTo serializes the program.
func (p *Program) EncodeTo(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(traceMagic); err != nil {
		return err
	}
	writeU32 := func(v uint32) { binary.Write(bw, binary.LittleEndian, v) } //nolint:errcheck
	writeStr := func(s string) {
		writeU32(uint32(len(s)))
		bw.WriteString(s) //nolint:errcheck
	}
	writeU32(traceVersion)
	writeStr(p.Name)
	writeU32(uint32(p.Procs))
	writeU32(uint32(len(p.Phases)))
	buf := make([]byte, 8)
	for _, ph := range p.Phases {
		writeStr(ph.Name)
		for _, st := range ph.Streams {
			writeU32(uint32(len(st)))
			for _, r := range st {
				binary.LittleEndian.PutUint32(buf[0:4], r.Addr)
				binary.LittleEndian.PutUint16(buf[4:6], r.Gap)
				buf[6] = byte(r.Kind)
				buf[7] = 0
				if _, err := bw.Write(buf); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

// maxStreamPrealloc caps the references ReadProgram reserves for one
// stream before reading them (8 MiB of refs).
const maxStreamPrealloc = 1 << 20

// ReadProgram deserializes a program written by EncodeTo and validates it.
func ReadProgram(r io.Reader) (*Program, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(magic) != traceMagic {
		return nil, fmt.Errorf("trace: bad magic %q", magic)
	}
	readU32 := func() (uint32, error) {
		var v uint32
		err := binary.Read(br, binary.LittleEndian, &v)
		return v, err
	}
	readStr := func() (string, error) {
		n, err := readU32()
		if err != nil {
			return "", err
		}
		if n > 1<<20 {
			return "", fmt.Errorf("trace: unreasonable string length %d", n)
		}
		b := make([]byte, n)
		_, err = io.ReadFull(br, b)
		return string(b), err
	}

	ver, err := readU32()
	if err != nil {
		return nil, err
	}
	if ver != traceVersion {
		return nil, fmt.Errorf("trace: version %d, want %d", ver, traceVersion)
	}
	name, err := readStr()
	if err != nil {
		return nil, err
	}
	procs, err := readU32()
	if err != nil {
		return nil, err
	}
	if procs == 0 || procs > 1<<16 {
		return nil, fmt.Errorf("trace: unreasonable processor count %d", procs)
	}
	nPhases, err := readU32()
	if err != nil {
		return nil, err
	}
	if nPhases > 1<<20 {
		return nil, fmt.Errorf("trace: unreasonable phase count %d", nPhases)
	}

	p := &Program{Name: name, Procs: int(procs)}
	buf := make([]byte, 8)
	for i := uint32(0); i < nPhases; i++ {
		phName, err := readStr()
		if err != nil {
			return nil, err
		}
		ph := Phase{Name: phName, Streams: make([][]mem.Ref, procs)}
		for pr := uint32(0); pr < procs; pr++ {
			n, err := readU32()
			if err != nil {
				return nil, err
			}
			if n > 1<<28 {
				return nil, fmt.Errorf("trace: unreasonable stream length %d", n)
			}
			// The length is untrusted: reserve at most maxStreamPrealloc
			// refs up front and grow as data actually arrives, so a forged
			// length cannot allocate gigabytes before the input runs out.
			// Growth is capped at n, so a stream that does arrive in
			// full ends with cap == len, like Builder.Finish's.
			st := make([]mem.Ref, 0, min(n, maxStreamPrealloc))
			for j := uint32(0); j < n; j++ {
				if _, err := io.ReadFull(br, buf); err != nil {
					return nil, err
				}
				if len(st) == cap(st) {
					st = append(make([]mem.Ref, 0, min(int(n), 2*cap(st))), st...)
				}
				st = append(st, mem.Ref{
					Addr: binary.LittleEndian.Uint32(buf[0:4]),
					Gap:  binary.LittleEndian.Uint16(buf[4:6]),
					Kind: mem.Kind(buf[6]),
				})
			}
			ph.Streams[pr] = st
		}
		p.Phases = append(p.Phases, ph)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("trace: deserialized program invalid: %w", err)
	}
	return p, nil
}
