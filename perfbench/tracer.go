package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"sccsim/internal/obs"
)

// span is one timed interval around a layer call. Its layer is the
// name's prefix up to the first dot ("sim.run" belongs to sim).
type span struct {
	name       string
	parent     int // id of the enclosing span; 0 for a root
	lane       int // timeline the span is drawn on (worker or client)
	start, end time.Time
}

func (s span) layer() string {
	for i := 0; i < len(s.name); i++ {
		if s.name[i] == '.' {
			return s.name[:i]
		}
	}
	return s.name
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced code paths pay one nil check per call.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span // id i+1 is spans[i]
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a finished span and returns its id.
func (t *tracer) add(name string, parent, lane int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name, parent, lane, start, end})
	return len(t.spans)
}

// open starts a span now; close ends it.
func (t *tracer) open(name string, parent, lane int) int {
	now := time.Now()
	return t.add(name, parent, lane, now, now)
}

func (t *tracer) close(id int) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].end = time.Now()
	t.mu.Unlock()
}

// selfByLayer sums, per layer, the self time of every span below root:
// a span's duration minus the part of it that its children cover.
func (t *tracer) selfByLayer(root int) map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]int{}
	for i, s := range t.spans {
		children[s.parent] = append(children[s.parent], i+1)
	}
	out := map[string]time.Duration{}
	var walk func(id int)
	walk = func(id int) {
		s := t.spans[id-1]
		var ivs [][2]time.Time
		for _, c := range children[id] {
			cs := t.spans[c-1]
			a, z := cs.start, cs.end
			if a.Before(s.start) {
				a = s.start
			}
			if z.After(s.end) {
				z = s.end
			}
			if z.After(a) {
				ivs = append(ivs, [2]time.Time{a, z})
			}
			walk(c)
		}
		out[s.layer()] += s.end.Sub(s.start) - union(ivs)
	}
	for _, c := range children[root] {
		walk(c)
	}
	return out
}

// union is the total length covered by the intervals.
func union(ivs [][2]time.Time) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0].Before(ivs[j][0]) })
	var total time.Duration
	var cur [2]time.Time
	for i, iv := range ivs {
		if i == 0 || iv[0].After(cur[1]) {
			total += cur[1].Sub(cur[0])
			cur = iv
			continue
		}
		if iv[1].After(cur[1]) {
			cur[1] = iv[1]
		}
	}
	return total + cur[1].Sub(cur[0])
}

// writeChrome exports the spans as Chrome trace_event JSON through the
// obs exporter: one track per lane, one event kind per span name, times
// in microseconds since the run started.
func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	kinds := map[string]uint8{}
	var names []string
	for _, s := range t.spans {
		if _, ok := kinds[s.name]; !ok && len(names) < 256 {
			kinds[s.name] = uint8(len(names))
			names = append(names, s.name)
		}
	}
	set := obs.NewTraceSet(names)
	c := set.NewCollector("perfbench", len(t.spans)+1)
	for _, s := range t.spans {
		c.SetTrackName(int32(s.lane), laneName(s.lane))
		c.Emit(obs.Event{
			TS:    uint64(s.start.Sub(t.epoch).Microseconds()),
			Dur:   uint64(max(s.end.Sub(s.start).Microseconds(), 1)),
			Track: int32(s.lane),
			Kind:  kinds[s.name],
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := set.WriteChrome(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func laneName(l int) string {
	if l == 0 {
		return "benchmark"
	}
	return fmt.Sprintf("lane %d", l)
}
