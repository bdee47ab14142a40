// Wire types: the JSON request and response bodies of the v1 API, their
// validation, and the canonical content key that coalescing and result
// caching hang off. Everything that can change a simulation's outcome —
// workload, resolved scale, simulator options, verification — goes into
// the key; everything that cannot (parallelism, timeouts, wait/stream
// mode) stays out, so requests that differ only in how they want to be
// served still share one execution.

package serve

import (
	"encoding/json"
	"fmt"

	"sccsim"
	"sccsim/internal/obs"
	"sccsim/internal/trace"
)

// ScaleSpec is the wire form of sccsim.Scale: explicit problem sizes
// for requests that need something other than the named "paper" and
// "quick" scales. Zero fields keep the Go zero value (the paper's
// configuration), matching the library.
type ScaleSpec struct {
	BarnesBodies  int   `json:"barnes_bodies,omitempty"`
	BarnesSteps   int   `json:"barnes_steps,omitempty"`
	MP3DParticles int   `json:"mp3d_particles,omitempty"`
	MP3DSteps     int   `json:"mp3d_steps,omitempty"`
	MultiprogRefs int   `json:"multiprog_refs,omitempty"`
	CholeskyGridW int   `json:"cholesky_grid_w,omitempty"`
	CholeskyGridH int   `json:"cholesky_grid_h,omitempty"`
	Seed          int64 `json:"seed,omitempty"`
}

func (s *ScaleSpec) toScale() sccsim.Scale {
	return sccsim.Scale{
		BarnesBodies: s.BarnesBodies, BarnesSteps: s.BarnesSteps,
		MP3DParticles: s.MP3DParticles, MP3DSteps: s.MP3DSteps,
		MultiprogRefs: s.MultiprogRefs,
		CholeskyGridW: s.CholeskyGridW, CholeskyGridH: s.CholeskyGridH,
		Seed: s.Seed,
	}
}

// SimSpec is the wire form of the simulator options — the data fields
// of sccsim.Options plus the verification toggle. Zero fields mean the
// paper's model, as in the library.
type SimSpec struct {
	WriteBufferDepth int    `json:"write_buffer_depth,omitempty"`
	BusOccupancy     int    `json:"bus_occupancy,omitempty"`
	SwitchPenalty    uint64 `json:"switch_penalty,omitempty"`
	MemBanks         int    `json:"mem_banks,omitempty"`
	MemBankOccupancy int    `json:"mem_bank_occupancy,omitempty"`
	VictimEntries    int    `json:"victim_entries,omitempty"`
	WarmupRefs       uint64 `json:"warmup_refs,omitempty"`
	// Verify attaches the coherence invariant checker to every run.
	Verify bool `json:"verify,omitempty"`
}

func (s *SimSpec) toOptions() sccsim.Options {
	return sccsim.Options{
		WriteBufferDepth: s.WriteBufferDepth,
		BusOccupancy:     s.BusOccupancy,
		SwitchPenalty:    s.SwitchPenalty,
		MemBanks:         s.MemBanks,
		MemBankOccupancy: s.MemBankOccupancy,
		VictimEntries:    s.VictimEntries,
		WarmupRefs:       s.WarmupRefs,
	}
}

// SweepRequest is the body of POST /v1/sweep.
type SweepRequest struct {
	// Workload is one of barnes-hut, mp3d, cholesky, multiprog.
	Workload string `json:"workload"`
	// Backend selects the execution engine: "exact" (default, the
	// cycle simulator) or "analytic" (the reuse-distance model — the
	// full grid from one profile pass, orders of magnitude faster, with
	// the accuracy contract documented in docs/API.md). The backend
	// changes the numbers, so it is part of the content key: exact and
	// analytic requests never coalesce or share cache entries.
	Backend string `json:"backend,omitempty"`
	// Scale names a problem-size preset: "paper" (default) or "quick".
	Scale string `json:"scale,omitempty"`
	// Seed overrides the preset's generator seed (0: keep the preset's).
	Seed int64 `json:"seed,omitempty"`
	// ScaleSpec sets explicit problem sizes; when present it wins over
	// Scale and Seed.
	ScaleSpec *ScaleSpec `json:"scale_spec,omitempty"`
	// Sim sets simulator options beyond the architecture (ablations,
	// verification).
	Sim *SimSpec `json:"sim,omitempty"`
	// Axes overlays architecture-axis overrides — line_bytes, assoc,
	// repl, hierarchy, l1_bytes — on every configuration in the grid
	// (absent or zero: the paper's defaults, byte-identical results and
	// unchanged content keys). The analytic backend models associativity
	// only; combining it with other non-default axes is a 400.
	Axes *sccsim.Axes `json:"axes,omitempty"`
	// Parallelism bounds the engine worker pool for this job
	// (0: the server's default). Results are identical for any value,
	// so it is excluded from the coalescing key.
	Parallelism int `json:"parallelism,omitempty"`
	// Wait selects synchronous (true, the default) or asynchronous
	// (false: 202 + poll GET /v1/sweep/{id}) handling.
	Wait *bool `json:"wait,omitempty"`
	// Stream makes the response an NDJSON stream of engine progress
	// events followed by the result. Implies waiting.
	Stream bool `json:"stream,omitempty"`
	// TimeoutMS caps this job's execution in milliseconds; the server's
	// job timeout is the ceiling (0: the server default). The first
	// request to create a job sets its deadline; coalesced requests
	// share it.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// PointRequest is the body of POST /v1/point: one design point instead
// of the whole grid. Always synchronous.
type PointRequest struct {
	// Workload is one of barnes-hut, mp3d, cholesky, multiprog.
	Workload string `json:"workload"`
	// Backend selects the execution engine: "exact" (default) or
	// "analytic" (see SweepRequest.Backend).
	Backend string `json:"backend,omitempty"`
	// Scale names a problem-size preset: "paper" (default) or "quick".
	Scale string `json:"scale,omitempty"`
	// Seed overrides the preset's generator seed (0: keep the preset's).
	Seed int64 `json:"seed,omitempty"`
	// ScaleSpec sets explicit problem sizes; wins over Scale and Seed.
	ScaleSpec *ScaleSpec `json:"scale_spec,omitempty"`
	// ProcsPerCluster and SCCBytes name the design point on the paper's
	// default system (zero fields: the 1P/64KB baseline).
	ProcsPerCluster int `json:"procs_per_cluster,omitempty"`
	SCCBytes        int `json:"scc_bytes,omitempty"`
	// Sim sets simulator options beyond the architecture.
	Sim *SimSpec `json:"sim,omitempty"`
	// Axes overlays architecture-axis overrides on the point's
	// configuration (see SweepRequest.Axes for semantics).
	Axes *sccsim.Axes `json:"axes,omitempty"`
	// TimeoutMS caps this job's execution in milliseconds (0: server
	// default).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// SearchRequest is the body of POST /v1/search: an adaptive
// design-space search (sccsim.SearchCtx) instead of an exhaustive
// sweep. Always synchronous. There is no backend field — the search
// drives both backends itself (analytic triage, exact confirmation).
type SearchRequest struct {
	// Workload is one of barnes-hut, mp3d, cholesky, multiprog.
	Workload string `json:"workload"`
	// Scale names a problem-size preset: "paper" (default) or "quick".
	Scale string `json:"scale,omitempty"`
	// Seed overrides the preset's generator seed (0: keep the preset's).
	// Distinct from Search.Seed, which seeds the random strategy.
	Seed int64 `json:"seed,omitempty"`
	// ScaleSpec sets explicit problem sizes; wins over Scale and Seed.
	ScaleSpec *ScaleSpec `json:"scale_spec,omitempty"`
	// Search declares the space, objectives, constraints and
	// strategy/budget knobs; the zero value searches the paper grid for
	// the cycles-vs-area frontier adaptively.
	Search sccsim.SearchSpec `json:"search"`
	// Parallelism bounds the exact-confirmation worker pool (0: the
	// server's default). Results are identical for any value, so it is
	// excluded from the coalescing key.
	Parallelism int `json:"parallelism,omitempty"`
	// TimeoutMS caps this job's execution in milliseconds (0: server
	// default).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// SearchResponse is the body of POST /v1/search.
type SearchResponse struct {
	// ID names the job; coalesced requests share the executing job's ID.
	ID string `json:"id"`
	// Status is done or failed.
	Status string `json:"status"`
	// Workload echoes the request.
	Workload string `json:"workload"`
	// Cache says how admission resolved (see SweepResponse.Cache).
	Cache string `json:"cache,omitempty"`
	// RequestID identifies the creating request (see
	// SweepResponse.RequestID).
	RequestID string `json:"request_id,omitempty"`
	// Result is the completed search: the exact-confirmed frontier, the
	// best cost/performance point, all simulated points, and the
	// per-stage accounting (present when done).
	Result *sccsim.SearchResult `json:"result,omitempty"`
	// Error describes the failure (present when failed).
	Error string `json:"error,omitempty"`
}

// resolveScale applies the preset/seed/spec precedence shared by both
// request types.
func resolveScale(preset string, seed int64, spec *ScaleSpec) (sccsim.Scale, error) {
	if spec != nil {
		return spec.toScale(), nil
	}
	var s sccsim.Scale
	switch preset {
	case "", "paper":
		s = sccsim.PaperScale()
	case "quick":
		s = sccsim.QuickScale()
	default:
		return s, fmt.Errorf("unknown scale %q (want \"paper\" or \"quick\")", preset)
	}
	if seed != 0 {
		s.Seed = seed
	}
	return s, nil
}

// resolveBackend normalizes a request's backend: empty means exact,
// anything else must parse against the library's backend list.
func resolveBackend(name string) (sccsim.Backend, error) {
	if name == "" {
		return sccsim.BackendExact, nil
	}
	return sccsim.ParseBackend(name)
}

// axesAnalyticOK reports whether the analytic backend could run an
// experiment with this axis overlay — associativity is modeled, the
// other non-default axes are exact-only. Delegates to the library's
// own validation so the answer cannot drift from what a real analytic
// request would be told.
func axesAnalyticOK(a *sccsim.Axes) bool {
	if a == nil || a.IsZero() {
		return true
	}
	return sccsim.Spec{Backend: string(sccsim.BackendAnalytic), Axes: a}.Validate() == nil
}

// scaleKeyPart canonicalizes a resolved scale for the content key.
func scaleKeyPart(s sccsim.Scale) string {
	return fmt.Sprintf("seed%d-bb%d-bs%d-mp%d-ms%d-mr%d-cw%d-ch%d",
		s.Seed, s.BarnesBodies, s.BarnesSteps, s.MP3DParticles, s.MP3DSteps,
		s.MultiprogRefs, s.CholeskyGridW, s.CholeskyGridH)
}

// simKeyPart canonicalizes the simulator options for the content key.
func simKeyPart(o sccsim.Options, verify bool) string {
	return fmt.Sprintf("wb%d-bo%d-sp%d-mb%d-mbo%d-ve%d-wr%d-v%t",
		o.WriteBufferDepth, o.BusOccupancy, o.SwitchPenalty, o.MemBanks,
		o.MemBankOccupancy, o.VictimEntries, o.WarmupRefs, verify)
}

// axesKeyPart canonicalizes the architecture-axis overlay for the
// content key. Default axes contribute nothing, so every pre-axes
// request keeps the digest it always had; any non-default axis makes
// the key distinct from the default grid's.
func axesKeyPart(a *sccsim.Axes) string {
	if a == nil || a.IsZero() {
		return ""
	}
	return fmt.Sprintf("-ax-lb%d-as%d-r%s-h%s-l1%d",
		a.LineBytes, a.Assoc, a.Repl, a.Hierarchy, a.L1Bytes)
}

// sweepKey builds the sweep content digest: the same SHA-256 keying
// scheme the trace disk cache uses (trace.KeyDigest), over everything
// that determines the grid's content — including the backend, since
// the two backends compute different numbers for the same experiment.
func sweepKey(w sccsim.Workload, b sccsim.Backend, s sccsim.Scale, o sccsim.Options, verify bool, axes *sccsim.Axes) string {
	return trace.KeyDigest(fmt.Sprintf("sweep-%s-%s-%s-%s%s", w, b, scaleKeyPart(s), simKeyPart(o, verify), axesKeyPart(axes)))
}

// searchKey builds the search content digest: the workload, the
// resolved scale, and the full search spec in its canonical JSON form
// (SearchSpec round-trips losslessly — the facade's spec test pins
// that), so identical searches coalesce and cached results are reused
// while any change to the space, objectives, constraints or knobs
// yields a fresh key. Search runs have no backend dimension: the
// pipeline always triages analytically and confirms exactly.
func searchKey(w sccsim.Workload, s sccsim.Scale, spec sccsim.SearchSpec) (string, error) {
	canon, err := json.Marshal(spec)
	if err != nil {
		return "", fmt.Errorf("canonicalize search spec: %w", err)
	}
	return trace.KeyDigest(fmt.Sprintf("search-%s-%s-%s", w, scaleKeyPart(s), canon)), nil
}

// pointKey builds the single-point content digest.
func pointKey(w sccsim.Workload, b sccsim.Backend, ppc, scc int, s sccsim.Scale, o sccsim.Options, verify bool, axes *sccsim.Axes) string {
	return trace.KeyDigest(fmt.Sprintf("point-%s-%s-p%d-c%d-%s-%s%s", w, b, ppc, scc, scaleKeyPart(s), simKeyPart(o, verify), axesKeyPart(axes)))
}

// SweepResponse is the terminal body of a sweep request: the full
// design-space grid (the same JSON encoding sccsim.SweepCtx's Grid
// marshals to, byte for byte) plus the engine's sweep report.
type SweepResponse struct {
	// ID names the job; coalesced requests share the executing job's ID.
	ID string `json:"id"`
	// Status is queued, running, done or failed.
	Status string `json:"status"`
	// Workload echoes the request.
	Workload string `json:"workload"`
	// Backend is the resolved execution backend ("exact" or
	// "analytic"), echoed so clients see which engine produced the grid
	// even when they relied on the default.
	Backend string `json:"backend"`
	// Cache says how admission resolved: "miss" (this request created
	// the job), "coalesced" (attached to an identical in-flight job) or
	// "hit" (served from the result cache).
	Cache string `json:"cache,omitempty"`
	// RequestID is the X-Request-ID of the request that created the job
	// — the join key to its structured log lines and run manifest. A
	// coalesced or cache-hit response reports the creator's ID (its own
	// ID is in the response header).
	RequestID string `json:"request_id,omitempty"`
	// Grid is the 8x4 design-space result (present when done).
	Grid *sccsim.Grid `json:"grid,omitempty"`
	// Report is the engine's sweep telemetry (present when done).
	Report *sccsim.SweepReport `json:"report,omitempty"`
	// Error describes the failure (present when failed).
	Error string `json:"error,omitempty"`
}

// PointResponse is the body of POST /v1/point.
type PointResponse struct {
	// ID names the job; coalesced requests share the executing job's ID.
	ID string `json:"id"`
	// Status is done or failed.
	Status string `json:"status"`
	// Workload echoes the request.
	Workload string `json:"workload"`
	// Backend is the resolved execution backend (see
	// SweepResponse.Backend).
	Backend string `json:"backend"`
	// Cache says how admission resolved (see SweepResponse.Cache).
	Cache string `json:"cache,omitempty"`
	// RequestID identifies the creating request (see
	// SweepResponse.RequestID).
	RequestID string `json:"request_id,omitempty"`
	// Point is the simulated design point (present when done).
	Point *sccsim.Point `json:"point,omitempty"`
	// Error describes the failure (present when failed).
	Error string `json:"error,omitempty"`
}

// JobStatus is the body of GET /v1/sweep/{id}: an async job's state,
// its latest engine progress, and — once finished — the same grid,
// report and error fields a synchronous response carries.
type JobStatus struct {
	// ID names the job.
	ID string `json:"id"`
	// Status is queued, running, done or failed.
	Status string `json:"status"`
	// Workload the job runs.
	Workload string `json:"workload"`
	// Backend is the job's resolved execution backend (see
	// SweepResponse.Backend).
	Backend string `json:"backend"`
	// RequestID identifies the creating request (see
	// SweepResponse.RequestID).
	RequestID string `json:"request_id,omitempty"`
	// Done and Total count completed and scheduled design points from
	// the engine's latest progress event (0/0 before the first).
	Done  int `json:"done"`
	Total int `json:"total"`
	// Coalesced counts requests that attached beyond the first.
	Coalesced int `json:"coalesced"`
	// AgeMS is milliseconds since the job was admitted.
	AgeMS int64 `json:"age_ms"`
	// Grid, Report and Error mirror SweepResponse once the job ends.
	Grid   *sccsim.Grid        `json:"grid,omitempty"`
	Report *sccsim.SweepReport `json:"report,omitempty"`
	Error  string              `json:"error,omitempty"`
}

// StreamEvent is one NDJSON line of a streaming sweep response: a
// progress event while the sweep runs, then exactly one terminal
// "result" or "error" event.
type StreamEvent struct {
	// Event is "progress", "result" or "error".
	Event string `json:"event"`
	// Progress carries the engine event (event == "progress").
	Progress *sccsim.Progress `json:"progress,omitempty"`
	// Result carries the terminal response (event == "result").
	Result *SweepResponse `json:"result,omitempty"`
	// Error describes the failure (event == "error").
	Error string `json:"error,omitempty"`
}

// Health is the body of GET /healthz.
type Health struct {
	// Status is "ok" while serving and "draining" during shutdown (with
	// a 503 status code).
	Status string `json:"status"`
	// UptimeMS is milliseconds since the server started.
	UptimeMS int64 `json:"uptime_ms"`
	// Queued and Running count admitted jobs by state; Workers and
	// QueueDepth echo the server's limits.
	Queued     int `json:"queued"`
	Running    int `json:"running"`
	Workers    int `json:"workers"`
	QueueDepth int `json:"queue_depth"`
	// CachedResults is the LRU result cache's population.
	CachedResults int `json:"cached_results"`
}

// DebugRequestsResponse is the body of GET /debug/requests: the ring
// buffer of recently completed requests, newest first, each with its
// per-span timing breakdown.
type DebugRequestsResponse struct {
	// Requests holds the retained requests (bounded by the server's
	// DebugRequests option).
	Requests []obs.RequestRecord `json:"requests"`
}

// errorBody is the JSON envelope of every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
}
