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

// WholeViewCopy returns a copy of v that does not run per document: its
// pass evaluates outer-binding chunks over every candidate's PDT instead
// of one unit per candidate, so the external tests can hold the two item
// shapes against each other.
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

// KeptResults runs a local ranking's view output and reports how many of
// the view's results it kept — detached, not nil slots — and the view's
// size.
func KeptResults(e *Engine, v *View, keywords []string, opts Options) (kept, size int, err error) {
	_, out, err := e.rankedSearch(context.Background(), v, keywords, opts)
	if err != nil {
		return 0, 0, err
	}
	for _, r := range out.results {
		if r != nil {
			kept++
		}
	}
	return kept, len(out.results), nil
}
