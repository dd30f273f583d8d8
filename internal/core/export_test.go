package core

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
