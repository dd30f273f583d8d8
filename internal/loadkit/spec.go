// Package loadkit is the traffic-shaped load and soak harness behind
// cmd/vxmlload. It drives declarative workload specs — phases with
// arrival rates, open- and closed-loop clients, read/stream/paginate
// mixes, burst ramps, mid-run replace/delete churn and pathological
// inputs — against a real internal/server over HTTP, records every
// request's latency into a log-linear histogram, and emits a
// schema-versioned vxmlload/1 report (p50/p95/p99/p999, sustained QPS, an
// error taxonomy, goroutine/heap ceilings). In soak mode a single-threaded
// oracle Database mirrors every mutation the churner sends and
// spot-checks response byte-identity; flagged requests get their query
// plan captured through POST /v1/explain the way vcltest attaches VCL
// line traces to failures.
package loadkit

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// SpecSchemaVersion identifies the scenario-spec layout Spec parses.
// Parsing is strict — unknown fields are rejected — so the version string
// fully determines the layout; bump it for any field change.
const SpecSchemaVersion = "vxmlload-spec/1"

// Duration is a time.Duration that marshals as a Go duration string
// ("1500ms", "10s") so spec files stay human-editable.
type Duration time.Duration

// UnmarshalJSON parses a Go duration string.
func (d *Duration) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return fmt.Errorf("duration must be a string like \"250ms\": %w", err)
	}
	v, err := time.ParseDuration(s)
	if err != nil {
		return err
	}
	*d = Duration(v)
	return nil
}

// MarshalJSON renders the duration string form.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// Spec is one declarative workload scenario: the corpus and views it runs
// over, the pool of search request templates the traffic draws from, the
// phases that shape the traffic over time, and (optionally) the mutation
// churn that runs underneath it.
type Spec struct {
	// Schema must be SpecSchemaVersion.
	Schema string `json:"schema"`
	// Name identifies the scenario in the report ("steady-read").
	Name string `json:"name"`
	// Description says what the scenario exercises, for readers.
	Description string `json:"description"`
	// Corpus declares the documents the scenario runs over.
	Corpus Corpus `json:"corpus"`
	// Views are defined on the server (self-serve mode) and on the soak
	// oracle; in -target mode they must already exist server-side.
	Views []ViewSpec `json:"views"`
	// Requests is the template pool read traffic draws from round-robin.
	Requests []RequestTemplate `json:"requests"`
	// Phases run in order; each shapes traffic for its duration.
	Phases []Phase `json:"phases"`
	// Churn, when present, runs a single-threaded mutation loop under the
	// read traffic for the whole run.
	Churn *Churn `json:"churn,omitempty"`
}

// Corpus declares the scenario's documents: a deterministic generated
// books/reviews pair (Books > 0 — the same generator, seed included, that
// `vxmlserve -demo` uses, so a spec can describe an externally booted demo
// server exactly), plus optional inline documents.
type Corpus struct {
	// Books sizes the generated corpus: Books books plus 2×Books reviews,
	// registered as "books.xml" and "reviews.xml".
	Books int `json:"books,omitempty"`
	// Seed drives the deterministic generator.
	Seed int64 `json:"seed,omitempty"`
	// Documents are inline extras, added after the generated pair.
	Documents []DocumentSpec `json:"documents,omitempty"`
}

// DocumentSpec is one inline corpus document.
type DocumentSpec struct {
	// Name registers the document; XML is its content.
	Name string `json:"name"`
	// XML is the document text.
	XML string `json:"xml"`
}

// ViewSpec is one named view definition.
type ViewSpec struct {
	// Name registers the view; XQuery defines it.
	Name string `json:"name"`
	// XQuery is the view definition.
	XQuery string `json:"xquery"`
}

// RequestTemplate is one entry of the read-traffic pool: the search
// request body the harness sends, shared by the one-shot, streaming and
// paginating op kinds.
type RequestTemplate struct {
	// View names the registered view to search.
	View string `json:"view"`
	// Keywords are the search keywords.
	Keywords []string `json:"keywords"`
	// TopK, Offset, Disjunctive, Cache and Parallelism mirror the
	// /v1/search request fields.
	TopK        int  `json:"top_k,omitempty"`
	Offset      int  `json:"offset,omitempty"`
	Disjunctive bool `json:"disjunctive,omitempty"`
	Cache       bool `json:"cache,omitempty"`
	Parallelism int  `json:"parallelism,omitempty"`
}

// Phase is one traffic-shaping window: how many client workers run, how
// arrivals are paced, and the op mix they draw.
type Phase struct {
	// Name labels the phase in the report ("warmup", "burst").
	Name string `json:"name"`
	// Duration is the phase length (scaled by the runner's DurationScale).
	Duration Duration `json:"duration"`
	// Clients is the worker count: the concurrency cap in open-loop
	// phases, the exact loop count in closed-loop ones.
	Clients int `json:"clients"`
	// Rate is the open-loop arrival rate in requests/second; 0 selects
	// closed-loop pacing (each client issues its next request as soon as
	// the previous one completes). Open-loop latency is measured from the
	// scheduled arrival time, so queueing behind a saturated server counts
	// against the latency distribution instead of being coordinated away.
	Rate float64 `json:"rate,omitempty"`
	// RateEnd, when > 0, ramps the arrival rate linearly from Rate to
	// RateEnd across the phase — the burst-ramp shape.
	RateEnd float64 `json:"rate_end,omitempty"`
	// Mix weights the op kinds: "search", "stream", "paginate",
	// "pathological" and "write". Weights are relative, not percentages.
	Mix map[string]float64 `json:"mix"`
}

// Churn configures the single-threaded mutation loop that runs under the
// read traffic: every Interval it replaces one of Documents with
// deterministically regenerated content (every DeleteEvery-th op is a
// delete + re-add instead), and every SpotCheckEvery-th op pauses to
// byte-compare a live search response against the single-threaded oracle
// Database that mirrored every mutation.
type Churn struct {
	// Interval paces the mutation loop.
	Interval Duration `json:"interval"`
	// Documents are the corpus documents the loop cycles over; each must
	// be "books.xml" or "reviews.xml" (their content is regenerated with
	// the corpus generator, so views over them keep matching).
	Documents []string `json:"documents"`
	// DeleteEvery makes every Nth op a delete + re-add (0 = never).
	DeleteEvery int `json:"delete_every,omitempty"`
	// SpotCheckEvery runs an oracle byte-identity spot check every Nth op
	// (0 = oracle disabled).
	SpotCheckEvery int `json:"spot_check_every,omitempty"`
}

// opKinds are the mix keys a phase may use.
var opKinds = map[string]bool{
	"search": true, "stream": true, "paginate": true, "pathological": true, "write": true,
}

// ParseSpec decodes and validates a scenario spec. Unknown fields are
// rejected, so a typoed key fails loudly instead of silently shaping no
// traffic.
func ParseSpec(data []byte) (*Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("loadkit: spec does not decode as %s: %w", SpecSchemaVersion, err)
	}
	if err := s.validate(); err != nil {
		return nil, fmt.Errorf("loadkit: invalid spec: %w", err)
	}
	return &s, nil
}

// LoadSpec reads and parses a scenario spec file.
func LoadSpec(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := ParseSpec(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// validate enforces the structural invariants the runner assumes.
func (s *Spec) validate() error {
	if s.Schema != SpecSchemaVersion {
		return fmt.Errorf("schema is %q, want %q", s.Schema, SpecSchemaVersion)
	}
	if s.Name == "" {
		return fmt.Errorf("missing name")
	}
	if s.Corpus.Books < 0 {
		return fmt.Errorf("corpus.books must be >= 0")
	}
	if s.Corpus.Books == 0 && len(s.Corpus.Documents) == 0 {
		return fmt.Errorf("corpus declares no documents")
	}
	for _, d := range s.Corpus.Documents {
		if d.Name == "" || d.XML == "" {
			return fmt.Errorf("inline document needs both name and xml")
		}
	}
	if len(s.Views) == 0 {
		return fmt.Errorf("no views")
	}
	viewNames := map[string]bool{}
	for _, v := range s.Views {
		if v.Name == "" || v.XQuery == "" {
			return fmt.Errorf("view needs both name and xquery")
		}
		if viewNames[v.Name] {
			return fmt.Errorf("duplicate view %q", v.Name)
		}
		viewNames[v.Name] = true
	}
	if len(s.Requests) == 0 {
		return fmt.Errorf("no request templates")
	}
	for i, r := range s.Requests {
		if !viewNames[r.View] {
			return fmt.Errorf("requests[%d] references undefined view %q", i, r.View)
		}
		if len(r.Keywords) == 0 {
			return fmt.Errorf("requests[%d] has no keywords", i)
		}
		if r.TopK < 0 || r.Offset < 0 || r.Parallelism < 0 {
			return fmt.Errorf("requests[%d] has negative top_k/offset/parallelism", i)
		}
	}
	if len(s.Phases) == 0 {
		return fmt.Errorf("no phases")
	}
	mixHasWrite := false
	for i, p := range s.Phases {
		if p.Name == "" {
			return fmt.Errorf("phases[%d] has no name", i)
		}
		if time.Duration(p.Duration) <= 0 {
			return fmt.Errorf("phase %q has non-positive duration", p.Name)
		}
		if p.Clients <= 0 {
			return fmt.Errorf("phase %q needs clients >= 1", p.Name)
		}
		if p.Rate < 0 || p.RateEnd < 0 {
			return fmt.Errorf("phase %q has a negative rate", p.Name)
		}
		if p.RateEnd > 0 && p.Rate == 0 {
			return fmt.Errorf("phase %q sets rate_end without rate (ramps are open-loop)", p.Name)
		}
		if len(p.Mix) == 0 {
			return fmt.Errorf("phase %q has an empty mix", p.Name)
		}
		total := 0.0
		for kind, w := range p.Mix {
			if !opKinds[kind] {
				return fmt.Errorf("phase %q mixes unknown op %q (want search, stream, paginate, pathological, write)", p.Name, kind)
			}
			if w < 0 {
				return fmt.Errorf("phase %q has a negative weight for %q", p.Name, kind)
			}
			if kind == "write" && w > 0 {
				mixHasWrite = true
			}
			total += w
		}
		if total <= 0 {
			return fmt.Errorf("phase %q has no positive mix weight", p.Name)
		}
	}
	if mixHasWrite && s.Corpus.Books == 0 {
		return fmt.Errorf("a write mix needs a generated corpus (corpus.books > 0) to regenerate content from")
	}
	if c := s.Churn; c != nil {
		if time.Duration(c.Interval) <= 0 {
			return fmt.Errorf("churn needs a positive interval")
		}
		if len(c.Documents) == 0 {
			return fmt.Errorf("churn lists no documents")
		}
		if s.Corpus.Books == 0 {
			return fmt.Errorf("churn needs a generated corpus (corpus.books > 0) to regenerate content from")
		}
		for _, d := range c.Documents {
			if d != "books.xml" && d != "reviews.xml" {
				return fmt.Errorf("churn document %q is not part of the generated pair (books.xml, reviews.xml)", d)
			}
		}
		if c.DeleteEvery < 0 || c.SpotCheckEvery < 0 {
			return fmt.Errorf("churn delete_every/spot_check_every must be >= 0")
		}
		if c.SpotCheckEvery > 0 && mixHasWrite {
			return fmt.Errorf("oracle spot checks require all mutations to flow through the churner; remove \"write\" from the mix")
		}
	}
	return nil
}
