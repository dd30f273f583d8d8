// The vxmlload/1 report: the machine-readable artifact of one load run,
// held to strict structural validation before a byte reaches disk.
package loadkit

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// SchemaVersion identifies the report layout this package emits and
// Validate accepts. Validation is strict — unknown fields are rejected —
// so the version string fully determines the layout: bump it for ANY
// field change, additive included, and teach Validate the new layout in
// the same change.
const SchemaVersion = "vxmlload/1"

// Report is the output of one vxmlload run.
type Report struct {
	// Schema is SchemaVersion.
	Schema string `json:"schema"`
	// Spec names the scenario that ran; Description is its description.
	Spec        string `json:"spec"`
	Description string `json:"description,omitempty"`
	// GeneratedBy records the producing command for provenance.
	GeneratedBy string `json:"generated_by"`
	// Target is "self" for the in-process server or the external base URL.
	Target string `json:"target"`
	// DurationScale and RateScale record how the committed spec was scaled
	// for this run (1 = as written), so a CI tiny-scale report cannot be
	// mistaken for a full run.
	DurationScale float64 `json:"duration_scale"`
	RateScale     float64 `json:"rate_scale"`
	// Host describes the measuring process's environment.
	Host Host `json:"host"`
	// DurationMillis is the whole run's wall-clock time, drain included.
	DurationMillis int64 `json:"duration_ms"`
	// Phases holds one entry per executed phase, in spec order.
	Phases []PhaseReport `json:"phases"`
	// Overall aggregates every phase.
	Overall Totals `json:"overall"`
	// Errors counts failures by taxonomy key: exact "http_NNN" keys for
	// unexpected statuses, "transport" for requests that never got a
	// response, "stream_error_line" for in-band NDJSON errors,
	// "pathological_unexpected" for pathological requests the server did
	// NOT reject with a 4xx, and "oracle_mismatch" for spot checks that
	// diverged from the sequential oracle.
	Errors map[string]int64 `json:"errors,omitempty"`
	// Resources are the goroutine/heap ceilings sampled over the run.
	Resources Resources `json:"resources"`
	// Soak reports the churn loop, when the spec configured one.
	Soak *SoakReport `json:"soak,omitempty"`
	// Failures carries the first flagged requests, each with its captured
	// execution trace when POST /v1/explain could provide one.
	Failures []Failure `json:"failures,omitempty"`
}

// PhaseReport is one phase's measured traffic.
type PhaseReport struct {
	// Name is the phase's spec name.
	Name string `json:"name"`
	// DurationMillis is the phase's actual (scaled) wall-clock length.
	DurationMillis int64 `json:"duration_ms"`
	// Totals aggregates the phase's requests; Ops breaks them down by op
	// kind ("search", "stream", ...).
	Totals
	Ops map[string]OpStats `json:"ops,omitempty"`
}

// Totals aggregates requests over a window: counts, sustained QPS and the
// latency distribution.
type Totals struct {
	// Requests counts attempted requests; Errors the failed ones.
	Requests int64 `json:"requests"`
	Errors   int64 `json:"errors"`
	// QPS is completed requests per second of window time.
	QPS float64 `json:"qps"`
	// Latency summarizes every completed request's latency.
	Latency LatencySummary `json:"latency"`
}

// OpStats is one op kind's share of a phase.
type OpStats struct {
	// Requests counts attempts; Errors failures.
	Requests int64 `json:"requests"`
	Errors   int64 `json:"errors"`
	// Latency summarizes the op's completed requests.
	Latency LatencySummary `json:"latency"`
}

// LatencySummary is a histogram rendered to the quantiles the roadmap
// asks for. All values are microseconds.
type LatencySummary struct {
	// Count is the number of observations behind the quantiles.
	Count int64 `json:"count"`
	// MinMicros through MaxMicros are the distribution's summary points.
	MinMicros  int64 `json:"min_us"`
	MeanMicros int64 `json:"mean_us"`
	P50Micros  int64 `json:"p50_us"`
	P95Micros  int64 `json:"p95_us"`
	P99Micros  int64 `json:"p99_us"`
	P999Micros int64 `json:"p999_us"`
	MaxMicros  int64 `json:"max_us"`
}

// Resources are the process-level ceilings sampled while the run was in
// flight. In self-serve mode (the default) the server shares the process,
// so these bound the serving stack too; in -target mode they describe the
// harness side only.
type Resources struct {
	// Samples counts sampler ticks.
	Samples int `json:"samples"`
	// GoroutinesBaseline is the count before traffic started;
	// GoroutinesMax the ceiling during the run; GoroutinesAfterDrain the
	// count once traffic stopped and the drain wait settled.
	GoroutinesBaseline   int `json:"goroutines_baseline"`
	GoroutinesMax        int `json:"goroutines_max"`
	GoroutinesAfterDrain int `json:"goroutines_after_drain"`
	// DrainedToBaseline reports whether the goroutine count returned to
	// (near) baseline after drain — the leak check the soak scenario
	// asserts on.
	DrainedToBaseline bool `json:"drained_to_baseline"`
	// HeapBytesMax is the highest sampled heap allocation.
	HeapBytesMax uint64 `json:"heap_bytes_max"`
}

// SoakReport summarizes the churn loop.
type SoakReport struct {
	// ChurnOps counts mutation-loop iterations; Replaces and Deletes the
	// operations they issued (a delete + re-add counts one Delete).
	ChurnOps int64 `json:"churn_ops"`
	Replaces int64 `json:"replaces"`
	Deletes  int64 `json:"deletes"`
	// SpotChecks counts oracle byte-identity checks; Mismatches the ones
	// that failed. A non-zero Mismatches fails the run.
	SpotChecks int64 `json:"spot_checks"`
	Mismatches int64 `json:"mismatches"`
}

// Failure is one flagged request, with enough captured context to debug
// it after the run: the op, the phase, what went wrong, and the query
// plan from POST /v1/explain when the request had one.
type Failure struct {
	// Op is the op kind ("search", "stream", "spot_check", ...); Phase
	// the phase it ran in ("churn" for churner-issued ops).
	Op    string `json:"op"`
	Phase string `json:"phase"`
	// Status is the HTTP status, when a response arrived.
	Status int `json:"status,omitempty"`
	// Error describes the failure.
	Error string `json:"error"`
	// Request is the JSON request body that was sent.
	Request string `json:"request,omitempty"`
	// Explain is the captured query plan, the execution trace attached
	// the way vcltest attaches VCL line traces.
	Explain string `json:"explain,omitempty"`
}

// Encode renders the report as indented, trailing-newline JSON — the
// canonical on-disk form (stable for git diffs).
func (r *Report) Encode() ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		return nil, fmt.Errorf("loadkit: encoding report: %w", err)
	}
	return buf.Bytes(), nil
}

// WriteFile validates the report and writes it atomically, so an invalid
// report is never written at all.
func (r *Report) WriteFile(path string) error {
	data, err := r.Encode()
	if err != nil {
		return err
	}
	if err := Validate(data); err != nil {
		return fmt.Errorf("loadkit: refusing to write invalid report: %w", err)
	}
	return writeFileAtomic(path, data)
}

// Host is the measurement environment: perf numbers are meaningless
// without it.
type Host struct {
	// GoVersion is runtime.Version().
	GoVersion string `json:"go_version"`
	// GOOS and GOARCH identify the platform.
	GOOS   string `json:"goos"`
	GOARCH string `json:"goarch"`
	// NumCPU is the machine's logical CPU count; GOMAXPROCS the scheduler
	// limit the run used.
	NumCPU     int `json:"num_cpu"`
	GOMAXPROCS int `json:"gomaxprocs"`
}

// hostInfo captures the current process's Host record.
func hostInfo() Host {
	return Host{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

// writeFileAtomic writes data to path via a same-directory temp file and
// rename, so a crashed or interrupted writer never leaves a half-written
// report behind.
func writeFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".bench-*.json")
	if err != nil {
		return err
	}
	name := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(name)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return err
	}
	return os.Rename(name, path)
}

// checkLatency enforces the internal consistency of one summary: ordered
// quantiles bracketed by min/max.
func checkLatency(where string, l LatencySummary) error {
	if l.Count == 0 {
		if l != (LatencySummary{}) {
			return fmt.Errorf("%s: zero-count latency summary has non-zero fields", where)
		}
		return nil
	}
	if l.MinMicros < 0 {
		return fmt.Errorf("%s: negative min", where)
	}
	ordered := []int64{l.MinMicros, l.P50Micros, l.P95Micros, l.P99Micros, l.P999Micros, l.MaxMicros}
	for i := 1; i < len(ordered); i++ {
		if ordered[i] < ordered[i-1] {
			return fmt.Errorf("%s: quantiles out of order: %+v", where, l)
		}
	}
	if l.MeanMicros < l.MinMicros || l.MeanMicros > l.MaxMicros {
		return fmt.Errorf("%s: mean outside [min, max]: %+v", where, l)
	}
	return nil
}

// Validate checks that data is a structurally valid SchemaVersion report:
// correct schema tag, no unknown fields, complete host metadata, at least
// one phase, ordered quantiles everywhere, and counts that add up. CI
// runs it against the emitted artifact so a schema regression fails the
// build instead of silently corrupting the trajectory.
func Validate(data []byte) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var r Report
	if err := dec.Decode(&r); err != nil {
		return fmt.Errorf("report does not decode as %s: %w", SchemaVersion, err)
	}
	if dec.More() {
		return fmt.Errorf("trailing data after the report object")
	}
	if r.Schema != SchemaVersion {
		return fmt.Errorf("schema is %q, want %q", r.Schema, SchemaVersion)
	}
	if r.Spec == "" {
		return fmt.Errorf("missing spec name")
	}
	if r.Target == "" {
		return fmt.Errorf("missing target")
	}
	if r.DurationScale <= 0 || r.RateScale <= 0 {
		return fmt.Errorf("non-positive duration_scale/rate_scale")
	}
	h := r.Host
	if h.GoVersion == "" || h.GOOS == "" || h.GOARCH == "" || h.NumCPU <= 0 || h.GOMAXPROCS <= 0 {
		return fmt.Errorf("incomplete host metadata: %+v", h)
	}
	if r.DurationMillis <= 0 {
		return fmt.Errorf("non-positive duration_ms")
	}
	if len(r.Phases) == 0 {
		return fmt.Errorf("no phases")
	}
	seen := map[string]bool{}
	var reqSum int64
	for _, p := range r.Phases {
		if p.Name == "" {
			return fmt.Errorf("phase with empty name")
		}
		if seen[p.Name] {
			return fmt.Errorf("duplicate phase %q", p.Name)
		}
		seen[p.Name] = true
		if p.DurationMillis <= 0 {
			return fmt.Errorf("phase %q has non-positive duration", p.Name)
		}
		if p.Requests < 0 || p.Errors < 0 || p.Errors > p.Requests || p.QPS < 0 {
			return fmt.Errorf("phase %q has inconsistent counts: %+v", p.Name, p.Totals)
		}
		if err := checkLatency("phase "+p.Name, p.Latency); err != nil {
			return err
		}
		var opReqs int64
		for kind, op := range p.Ops {
			if op.Requests < 0 || op.Errors < 0 || op.Errors > op.Requests {
				return fmt.Errorf("phase %q op %q has inconsistent counts", p.Name, kind)
			}
			if err := checkLatency(fmt.Sprintf("phase %q op %q", p.Name, kind), op.Latency); err != nil {
				return err
			}
			opReqs += op.Requests
		}
		if len(p.Ops) > 0 && opReqs != p.Requests {
			return fmt.Errorf("phase %q op requests sum to %d, phase says %d", p.Name, opReqs, p.Requests)
		}
		reqSum += p.Requests
	}
	if r.Overall.Requests != reqSum {
		return fmt.Errorf("overall requests %d != phase sum %d", r.Overall.Requests, reqSum)
	}
	if err := checkLatency("overall", r.Overall.Latency); err != nil {
		return err
	}
	for key, n := range r.Errors {
		if key == "" || n < 0 {
			return fmt.Errorf("error taxonomy entry %q=%d is invalid", key, n)
		}
	}
	res := r.Resources
	if res.GoroutinesBaseline <= 0 || res.GoroutinesMax < res.GoroutinesBaseline || res.Samples < 0 {
		return fmt.Errorf("inconsistent resources block: %+v", res)
	}
	if s := r.Soak; s != nil {
		if s.ChurnOps < 0 || s.Replaces < 0 || s.Deletes < 0 || s.SpotChecks < 0 || s.Mismatches < 0 {
			return fmt.Errorf("negative soak counter: %+v", s)
		}
		if s.Mismatches > s.SpotChecks {
			return fmt.Errorf("soak mismatches %d exceed spot checks %d", s.Mismatches, s.SpotChecks)
		}
	}
	for i, f := range r.Failures {
		if f.Op == "" || f.Error == "" {
			return fmt.Errorf("failures[%d] lacks op or error", i)
		}
	}
	return nil
}

// ValidateFile runs Validate over a report file on disk.
func ValidateFile(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := Validate(data); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
