package core

import (
	"context"

	"vxml/internal/scoring"
)

// PerDocumentReason exposes perDocumentReason to the external tests: ""
// when v runs one work unit per candidate document, else why it does not.
func PerDocumentReason(v *View) string { return perDocumentReason(v.Deps) }

// RunsPerDocument reports the eligibility CompileParsed recorded for v.
func RunsPerDocument(v *View) bool { return v.perDocument }

// WholeViewCopy returns a copy of v that takes the whole-view pipeline, so
// the external tests can hold the per-document pipeline against it.
func WholeViewCopy(v *View) *View {
	w := *v
	w.perDocument = false
	return &w
}

// RankedPruned runs a search short of materialization — plan, view output,
// collect, select — and returns its ranked winners as the pruned trees they
// are, so the external tests can compare rankings without base data.
func RankedPruned(e *Engine, v *View, keywords []string, opts Options) ([]scoring.Scored, *Stats, error) {
	ranked, out, err := e.rankedSearch(context.Background(), v, keywords, opts)
	if err != nil {
		return nil, nil, err
	}
	return ranked, out.stats, nil
}
