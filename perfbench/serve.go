package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"sccsim"
	"sccsim/internal/explorer"
	"sccsim/internal/obs"
	"sccsim/internal/serve"
	"sccsim/internal/serve/clustertest"
)

// serveScale is the small problem size of serve-mixed requests: a cold
// point costs tens of milliseconds, so generation, the trace caches and
// request handling carry the time rather than replay.
func serveScale(seed int64) serve.ScaleSpec {
	return serve.ScaleSpec{
		BarnesBodies: 128, BarnesSteps: 1,
		MP3DParticles: 1000, MP3DSteps: 1,
		MultiprogRefs: 10_000,
		CholeskyGridW: 8, CholeskyGridH: 8,
		Seed: seed,
	}
}

func toScale(s serve.ScaleSpec) sccsim.Scale {
	return sccsim.Scale{
		BarnesBodies: s.BarnesBodies, BarnesSteps: s.BarnesSteps,
		MP3DParticles: s.MP3DParticles, MP3DSteps: s.MP3DSteps,
		MultiprogRefs: s.MultiprogRefs,
		CholeskyGridW: s.CholeskyGridW, CholeskyGridH: s.CholeskyGridH,
		Seed: s.Seed,
	}
}

// Request kinds of the mix. Points carry a fresh seed each, so every
// one generates its trace; the other kinds cycle through a small key
// set fixed by the run seed, so the first request of a key does the
// work and repeats are result-cache hits or coalesce.
const (
	kindPoint    = "point"    // cold exact /v1/point
	kindSweep    = "sweep"    // exact /v1/sweep, sharded over the workers
	kindAnalytic = "analytic" // analytic /v1/sweep
	kindSearch   = "search"   // /v1/search over a small space
)

// mixBlock fixes the mix's proportions: every block of 20 requests
// holds 15 points, 4 sweeps and 1 search in a seeded order, so every
// seed sends the same mix. These are the proportions of the repository's
// load driver (mix in cmd/sccload). That mix has no analytic sweeps, so
// its 4 sweeps are split evenly into 2 exact and 2 analytic; the split
// is a choice, not taken from measured traffic.
var mixBlock = func() []string {
	var b []string
	for _, k := range []struct {
		kind string
		n    int
	}{{kindPoint, 15}, {kindSweep, 2}, {kindAnalytic, 2}, {kindSearch, 1}} {
		for i := 0; i < k.n; i++ {
			b = append(b, k.kind)
		}
	}
	return b
}()

// request is one generated request of the mix.
type request struct {
	id       string
	kind     string
	path     string
	body     []byte
	workload explorer.Workload
	scale    serve.ScaleSpec
	ppc, scc int // point requests
}

// mix hands out the seeded request sequence to the clients.
type mix struct {
	mu    sync.Mutex
	rng   *rand.Rand
	seed  int64
	n     int
	block []string
	turns map[string]int // requests of each kind so far
}

func newMix(seed int64) *mix {
	return &mix{rng: rand.New(rand.NewSource(seed)), seed: seed, turns: map[string]int{}}
}

func (m *mix) next() request {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.block) == 0 {
		m.block = append([]string(nil), mixBlock...)
		m.rng.Shuffle(len(m.block), func(i, j int) { m.block[i], m.block[j] = m.block[j], m.block[i] })
	}
	kind := m.block[0]
	m.block = m.block[1:]
	m.n++
	// Each kind takes the workloads in turn, so the mix's cost does not
	// depend on the seed.
	turn := m.turns[kind]
	m.turns[kind]++
	ws := explorer.AllWorkloads
	var r request
	switch kind {
	case kindPoint:
		// Fresh seeds never repeat across requests or runs of other seeds.
		r = request{kind: kind, path: "/v1/point", workload: ws[turn%len(ws)],
			scale: serveScale(m.seed*1_000_000 + int64(m.n)),
			ppc:   []int{1, 2, 4, 8}[turn/len(ws)%4],
			scc:   []int{8 << 10, 32 << 10, 128 << 10}[m.rng.Intn(3)]}
		r.body = mustJSON(serve.PointRequest{Workload: string(r.workload), ScaleSpec: &r.scale,
			ProcsPerCluster: r.ppc, SCCBytes: r.scc})
	case kindSweep:
		r = exactSweep(ws[turn%len(ws)], m.seed)
	case kindAnalytic:
		r = analyticSweep(explorer.ParallelWorkloads[turn%len(explorer.ParallelWorkloads)], m.seed)
	case kindSearch:
		r = request{kind: kind, path: "/v1/search", workload: ws[turn%len(ws)], scale: serveScale(m.seed)}
		r.body = mustJSON(serve.SearchRequest{Workload: string(r.workload), ScaleSpec: &r.scale,
			Search: sccsim.SearchSpec{Space: sccsim.SearchSpace{
				ProcsPerCluster: []int{1, 2, 4}, SCCBytes: []int{8 << 10, 32 << 10, 128 << 10}}}})
	}
	r.id = fmt.Sprintf("pb-%d-%06d", m.seed, m.n)
	return r
}

// exactSweep is the exact /v1/sweep request of the repeated key set:
// one key per workload, at the run seed.
func exactSweep(w explorer.Workload, seed int64) request {
	sc := serveScale(seed)
	return request{kind: kindSweep, path: "/v1/sweep", workload: w, scale: sc,
		body: mustJSON(serve.SweepRequest{Workload: string(w), ScaleSpec: &sc})}
}

// analyticSweep is the analytic /v1/sweep request of the repeated key
// set: one key per parallel workload, at the run seed.
func analyticSweep(w explorer.Workload, seed int64) request {
	sc := serveScale(seed)
	return request{kind: kindAnalytic, path: "/v1/sweep", workload: w, scale: sc,
		body: mustJSON(serve.SweepRequest{Workload: string(w), Backend: "analytic", ScaleSpec: &sc})}
}

// keySet lists the sweep requests of a run's repeated key sets.
func keySet(seed int64) []request {
	var rs []request
	for _, w := range explorer.AllWorkloads {
		rs = append(rs, exactSweep(w, seed))
	}
	for _, w := range explorer.ParallelWorkloads {
		rs = append(rs, analyticSweep(w, seed))
	}
	return rs
}

func mustJSON(v any) []byte {
	raw, err := json.Marshal(v)
	if err != nil {
		panic(err) // the request types always encode
	}
	return raw
}

// reply is one completed request as the client saw it.
type reply struct {
	req        request
	lane       int
	start, end time.Time
	cache      string
	grid       json.RawMessage // sweep replies
	point      json.RawMessage // point replies
	refs       uint64
	err        error
}

// fleet is a booted loopback cluster: a coordinator and two workers.
type fleet struct {
	*clustertest.Cluster
	stop   func()
	client *http.Client
}

// serveSetup boots the cluster, registers its workers and computes the
// expected replies of the run's key sets with the library, then drops
// the process's trace caches so the timed phase starts cold. It sets up
// runs times, keeps the last fleet, and returns the median set-up time.
func serveSetup(ctx context.Context, b *bench, runs int) (*fleet, *references, float64, error) {
	dir := filepath.Join(b.work, "tmp")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, 0, err
	}
	var times []float64
	var f *fleet
	var refs *references
	for i := 0; i < runs; i++ {
		if f != nil {
			f.stop()
		}
		t0 := time.Now()
		c, stop, err := clustertest.New(clustertest.Options{
			Workers: 2,
			Dir:     dir,
			Coordinator: serve.Options{
				Workers: parallelism, QueueDepth: 64, Parallelism: parallelism,
				DebugRequests: 8192,
				// The default 32 results would let the fresh-seed points
				// evict the repeated key set; it must stay cached.
				CacheEntries: 256,
			},
		})
		if err != nil {
			return nil, nil, 0, err
		}
		f = &fleet{Cluster: c, stop: stop, client: &http.Client{Timeout: time.Minute}}
		refs = &references{b: b, raw: map[string][]byte{}}
		for _, r := range keySet(b.seed) {
			refs.of(ctx, r)
		}
		sccsim.ResetTraceCache()
		times = append(times, time.Since(t0).Seconds())
	}
	return f, refs, median(times), nil
}

// servePhase runs the closed-loop clients against the coordinator for
// dur, and for at least three blocks of the mix so every request kind
// and its cache hits occur, and returns every reply.
func servePhase(ctx context.Context, f *fleet, m *mix, dur time.Duration) ([]reply, time.Duration) {
	var mu sync.Mutex
	var out []reply
	start := time.Now()
	more := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return (time.Since(start) < dur || len(out) < 3*len(mixBlock)) && ctx.Err() == nil
	}
	var wg sync.WaitGroup
	for lane := 1; lane <= parallelism; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for more() {
				r := f.do(ctx, m.next())
				r.lane = lane
				mu.Lock()
				out = append(out, r)
				mu.Unlock()
			}
		}(lane)
	}
	wg.Wait()
	return out, time.Since(start)
}

// do sends one request and decodes what the checks and metrics need.
func (f *fleet) do(ctx context.Context, req request) reply {
	r := reply{req: req, start: time.Now()}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, f.URL+req.path, bytes.NewReader(req.body))
	if err != nil {
		r.err = err
		return r
	}
	hr.Header.Set("Content-Type", "application/json")
	hr.Header.Set("X-Request-ID", req.id)
	resp, err := f.client.Do(hr)
	if err != nil {
		r.err, r.end = err, time.Now()
		return r
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.end = time.Now()
	if err != nil {
		r.err = err
		return r
	}
	if resp.StatusCode != http.StatusOK {
		r.err = fmt.Errorf("status %d: %.200s", resp.StatusCode, raw)
		return r
	}
	var env struct {
		Status string          `json:"status"`
		Cache  string          `json:"cache"`
		Grid   json.RawMessage `json:"grid"`
		Point  json.RawMessage `json:"point"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(raw, &env); err != nil || env.Status != "done" {
		r.err = fmt.Errorf("bad %s reply (status %q): %v", req.kind, env.Status, err)
		return r
	}
	r.cache = env.Cache
	// Only a reply that ran its own job simulated anything: a result-cache
	// hit or a request coalesced onto another's job adds no references.
	simulated := r.cache != "hit" && r.cache != "coalesced"
	switch req.kind {
	case kindPoint:
		var pt sccsim.Point
		if err := json.Unmarshal(env.Point, &pt); err != nil || pt.Result == nil || pt.Result.Refs == 0 {
			r.err = fmt.Errorf("point reply without a result: %v", err)
			break
		}
		r.point = env.Point
		if simulated {
			r.refs = pt.Result.Refs
		}
	case kindSweep, kindAnalytic:
		var g sccsim.Grid
		if err := json.Unmarshal(env.Grid, &g); err != nil || len(g.Points) == 0 {
			r.err = fmt.Errorf("sweep reply without a grid: %v", err)
			break
		}
		r.grid = env.Grid
		if req.kind == kindSweep && simulated {
			for _, row := range g.Points {
				for _, pt := range row {
					r.refs += pt.Result.Refs
				}
			}
		}
	case kindSearch:
		if len(env.Result) == 0 {
			r.err = fmt.Errorf("search reply without a result")
		}
	}
	return r
}

// references holds the library's answer to each request, by body.
type references struct {
	b   *bench
	raw map[string][]byte
}

// of returns the library's encoded answer to r, computing it once.
func (rf *references) of(ctx context.Context, r request) []byte {
	key := string(r.body)
	if want, ok := rf.raw[key]; ok {
		return want
	}
	want, err := answer(ctx, r)
	rf.b.check(err == nil, "reference %s for %s: %v", r.kind, r.workload, err)
	rf.raw[key] = want
	return want
}

// prefetch computes the answers to the point requests on checkLanes
// goroutines: one point per request, they dominate the checking time.
func (rf *references) prefetch(ctx context.Context, replies []reply) {
	var todo []request
	for _, r := range replies {
		if _, ok := rf.raw[string(r.req.body)]; !ok && r.req.kind == kindPoint && r.err == nil {
			todo = append(todo, r.req)
		}
	}
	raw := make([][]byte, len(todo))
	errs := make([]error, len(todo))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < checkLanes; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				raw[i], errs[i] = answer(ctx, todo[i])
			}
		}()
	}
	for i := range todo {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, r := range todo {
		rf.b.check(errs[i] == nil, "reference point for %s: %v", r.workload, errs[i])
		rf.raw[string(r.body)] = raw[i]
	}
}

// answer is the library's encoded answer to r: sccsim.Do for a point,
// sccsim.SweepCtx for a sweep.
func answer(ctx context.Context, r request) ([]byte, error) {
	opts := []sccsim.Opt{sccsim.WithScale(toScale(r.scale)), sccsim.WithParallelism(parallelism)}
	var v any
	var err error
	switch r.kind {
	case kindPoint:
		v, err = sccsim.Do(ctx, r.workload, append(opts, sccsim.WithPoint(r.ppc, r.scc))...)
	case kindAnalytic:
		v, err = sccsim.SweepCtx(ctx, r.workload, append(opts, sccsim.WithBackend(sccsim.BackendAnalytic))...)
	default:
		v, err = sccsim.SweepCtx(ctx, r.workload, opts...)
	}
	if err != nil {
		return nil, err
	}
	return json.Marshal(v)
}

// checkReplies counts the replies as operations and checks them
// against the library: every sweep grid byte-identical to
// sccsim.SweepCtx for the same request, every point to sccsim.Do.
// Searches are checked for a result only. It returns a digest of the
// exact sweep grids of the run's key set — the simulated statistics,
// which depend on the seed alone — and those grids.
func checkReplies(ctx context.Context, b *bench, replies []reply, refs *references) (string, []*explorer.Grid) {
	refs.prefetch(ctx, replies)
	for _, r := range replies {
		b.attempted++
		if r.err != nil {
			b.check(false, "%s %s: %v", r.req.id, r.req.kind, r.err)
			continue
		}
		switch r.req.kind {
		case kindPoint:
			b.check(bytes.Equal(refs.of(ctx, r.req), r.point), "%s: point differs from sccsim.Do for the same request", r.req.id)
		case kindSweep, kindAnalytic:
			b.check(bytes.Equal(refs.of(ctx, r.req), r.grid), "%s: %s grid differs from sccsim.SweepCtx for the same request", r.req.id, r.req.kind)
		}
	}
	h := sha256.New()
	var grids []*explorer.Grid
	for _, w := range explorer.AllWorkloads {
		raw := refs.of(ctx, exactSweep(w, b.seed))
		h.Write(raw)
		var g explorer.Grid
		if json.Unmarshal(raw, &g) == nil {
			grids = append(grids, &g)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), grids
}

// serveWorkload is the untraced run of serve-mixed.
func serveWorkload(b *bench) error {
	ctx := context.Background()
	f, refs, setup, err := serveSetup(ctx, b, serveSetupRuns)
	if err != nil {
		return err
	}
	defer f.stop()
	replies, _ := servePhase(ctx, f, newMix(b.seed), b.seconds)
	b.set("peak_rss_mb", peakRSSMB())
	b.digest, _ = checkReplies(ctx, b, replies, refs)
	b.set("setup_s", setup)
	b.setServeE2E(replies)
	return nil
}

// setServeE2E derives the end-to-end metrics of a serve phase. One
// operation is one request. The client sends the mix in blocks of
// len(mixBlock) requests, each block the same mix; the rates are
// medians over the phase's complete blocks, so a stretch of the run
// that a busy host slowed moves neither. Latency percentiles are over
// every request.
func (b *bench) setServeE2E(replies []reply) {
	var lat, ops, refs []float64
	for i := 0; i+len(mixBlock) <= len(replies); i += len(mixBlock) {
		block := replies[i : i+len(mixBlock)]
		wall := block[len(block)-1].end.Sub(block[0].start)
		var n, r float64
		for _, rp := range block {
			if rp.err == nil {
				n++
				r += float64(rp.refs)
			}
		}
		ops = append(ops, n/wall.Seconds())
		refs = append(refs, r/(float64(wall.Microseconds())*parallelism))
	}
	for _, r := range replies {
		if r.err == nil {
			lat = append(lat, ms(r.end.Sub(r.start)))
		}
	}
	b.set("sim_refs_per_us", median(refs))
	b.set("op_per_s", median(ops))
	b.setLatency(lat)
}

// getJSON fetches a node's JSON endpoint.
func (f *fleet) getJSON(url string, v any) error {
	resp, err := f.client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// debugRequests returns a node's retained request records.
func (f *fleet) debugRequests(url string) ([]obs.RequestRecord, error) {
	var dr serve.DebugRequestsResponse
	err := f.getJSON(url+"/debug/requests", &dr)
	return dr.Requests, err
}
