package core

import (
	"context"
	"fmt"
	"strings"

	"vxml/internal/docname"
	"vxml/internal/pathindex"
)

// ExplainContext is Explain with a cancellation pre-flight: plan rendering
// is cheap (no PDT is generated, no view evaluated), so one ctx check
// before taking the read locks is the whole cooperation. Keywords a search
// would reject (NormalizeKeywords) are rejected here too.
func (e *Engine) ExplainContext(ctx context.Context, v *View, keywords []string) (string, error) {
	if err := ctxErr(ctx); err != nil {
		return "", err
	}
	if _, err := NormalizeKeywords(keywords); err != nil {
		return "", err
	}
	return e.Explain(v, keywords), nil
}

// Explain renders the query plan for a keyword search over the view: the
// QPT per document, the exact index probes PrepareLists will issue (with
// '//' expansion against each document's path dictionary), and the
// inverted-list probes for the keywords, and whether evaluation runs per
// candidate document or over the whole view. No PDT is generated.
func (e *Engine) Explain(v *View, keywords []string) string {
	e.RLock()
	defer e.RUnlock()
	var b strings.Builder
	b.WriteString("view:\n")
	for _, line := range strings.Split(strings.TrimSpace(v.Text), "\n") {
		b.WriteString("  ")
		b.WriteString(strings.TrimSpace(line))
		b.WriteString("\n")
	}
	for _, q := range v.QPTs {
		fmt.Fprintf(&b, "\nQPT for %s:\n", q.Doc)
		for _, line := range strings.Split(strings.TrimRight(q.String(), "\n"), "\n") {
			b.WriteString("  ")
			b.WriteString(line)
			b.WriteString("\n")
		}
		if docname.IsPattern(q.Doc) {
			docs := e.Store.InfosMatching(q.Doc)
			fmt.Fprintf(&b, "  collection pattern: %d matching document(s)\n", len(docs))
		}
		b.WriteString("  path index probes:\n")
		var pix *pathindex.Index
		if !docname.IsPattern(q.Doc) {
			pix = e.PathIndex(q.Doc)
		}
		for _, pr := range q.Probes() {
			n, steps := pr.Node, pr.Steps
			var ann []string
			if n.V {
				ann = append(ann, "values")
			}
			if n.C {
				ann = append(ann, "tf+len")
			}
			for _, p := range n.Preds {
				ann = append(ann, "pred("+p.String()+")")
			}
			suffix := ""
			if len(ann) > 0 {
				suffix = " [" + strings.Join(ann, ", ") + "]"
			}
			fmt.Fprintf(&b, "    %s%s\n", pathindex.FormatSteps(steps), suffix)
			if pix != nil {
				for _, fp := range pix.MatchFullPaths(steps) {
					fmt.Fprintf(&b, "      -> %s\n", fp)
				}
			}
		}
	}
	if reason := perDocumentReason(v.Deps); reason == "" {
		candidates, all := len(e.Store.InfosMatching(v.Deps.Outer)), 0
		for _, ref := range v.Deps.Refs {
			all += len(e.Store.InfosMatching(ref))
		}
		fmt.Fprintf(&b, "\nevaluation: per document (%d candidates, %d side documents)\n", candidates, all-candidates)
	} else {
		fmt.Fprintf(&b, "\nevaluation: whole view (%s)\n", reason)
	}
	if len(keywords) > 0 {
		b.WriteString("\ninverted list probes: ")
		for i, k := range keywords {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(NormalizeKeyword(k))
		}
		b.WriteString("\n")
	}
	return b.String()
}
