package loadkit

import (
	"path/filepath"
	"strings"
	"testing"
)

// sampleReport builds a minimal structurally-valid report.
func sampleReport() *Report {
	var h Histogram
	for v := int64(100); v <= 200; v++ {
		h.Record(v)
	}
	lat := h.Summary()
	return &Report{
		Schema:         SchemaVersion,
		Spec:           "unit",
		GeneratedBy:    "vxmlload",
		Target:         "self",
		DurationScale:  1,
		RateScale:      1,
		Host:           hostInfo(),
		DurationMillis: 1234,
		Phases: []PhaseReport{{
			Name:           "warm",
			DurationMillis: 1000,
			Totals:         Totals{Requests: 101, Errors: 1, QPS: 101, Latency: lat},
			Ops: map[string]OpStats{
				"search": {Requests: 80, Errors: 1, Latency: lat},
				"stream": {Requests: 21, Latency: lat},
			},
		}},
		Overall: Totals{Requests: 101, Errors: 1, QPS: 101, Latency: lat},
		Errors:  map[string]int64{"http_500": 1},
		Resources: Resources{
			Samples: 10, GoroutinesBaseline: 8, GoroutinesMax: 40,
			GoroutinesAfterDrain: 9, DrainedToBaseline: true, HeapBytesMax: 1 << 20,
		},
		Soak:     &SoakReport{ChurnOps: 10, Replaces: 7, Deletes: 3, SpotChecks: 5},
		Failures: []Failure{{Op: "search", Phase: "warm", Status: 500, Error: "kaboom"}},
	}
}

func TestReportValidateAcceptsWellFormed(t *testing.T) {
	data, err := sampleReport().Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if err := Validate(data); err != nil {
		t.Fatalf("Validate rejected a well-formed report: %v", err)
	}
}

func TestReportValidateRejections(t *testing.T) {
	base := string(mustEncode(t, sampleReport()))
	cases := []struct {
		name string
		data string
		want string
	}{
		{"wrong schema", strings.Replace(base, `"vxmlload/1"`, `"vxmlload/9"`, 1), "schema"},
		{"unknown field", strings.Replace(base, `"spec": "unit"`, `"spec": "unit", "extra": 1`, 1), "decode"},
		{"op sum mismatch", strings.Replace(base, `"requests": 80`, `"requests": 70`, 1), "sum"},
		{"overall mismatch", strings.Replace(base, `"requests": 101,
    "errors": 1,
    "qps": 101`, `"requests": 999,
    "errors": 1,
    "qps": 101`, 2), ""},
		{"mismatches exceed checks", strings.Replace(base, `"mismatches": 0`, `"mismatches": 99`, 1), "exceed"},
		{"errors exceed requests", strings.Replace(base, `"errors": 1,
      "qps"`, `"errors": 500,
      "qps"`, 1), "inconsistent"},
		{"missing target", strings.Replace(base, `"target": "self"`, `"target": ""`, 1), "target"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.data == base {
				t.Fatalf("mutation did not apply — test fixture drifted")
			}
			err := Validate([]byte(tc.data))
			if err == nil {
				t.Fatalf("Validate accepted a broken report")
			}
			if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestReportWriteFileRefusesInvalid(t *testing.T) {
	dir := t.TempDir()
	r := sampleReport()
	path := filepath.Join(dir, "BENCH_LOAD_unit.json")
	if err := r.WriteFile(path); err != nil {
		t.Fatalf("WriteFile(valid): %v", err)
	}
	if err := ValidateFile(path); err != nil {
		t.Fatalf("ValidateFile round-trip: %v", err)
	}
	r.Overall.Requests = 999 // breaks the phase-sum invariant
	bad := filepath.Join(dir, "BENCH_LOAD_bad.json")
	if err := r.WriteFile(bad); err == nil {
		t.Fatalf("WriteFile wrote a report that fails its own validation")
	}
	if err := ValidateFile(bad); err == nil {
		t.Fatalf("invalid report reached disk")
	}
}

func mustEncode(t *testing.T, r *Report) []byte {
	t.Helper()
	data, err := r.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return data
}
