// Package docname defines the document-name pattern language used by
// collection views: fn:collection("part-*") ranges over every document
// whose name matches the pattern, turning a corpus of many documents into
// one logical input sequence. A pattern is a document name in which each
// '*' matches any (possibly empty) run of characters; a name without '*'
// is an exact reference. The language is deliberately tiny — patterns are
// compared against registered document names, never against file systems.
package docname

import "strings"

// IsPattern reports whether s contains a wildcard and therefore names a
// collection of documents rather than a single document.
func IsPattern(s string) bool { return strings.Contains(s, "*") }

// Match reports whether name matches pattern, where each '*' in pattern
// matches any (possibly empty) substring. A pattern without '*' matches
// only the identical name. It runs for every candidate document of a
// collection view, so it allocates nothing: the parts between stars are
// cut from the pattern one at a time, each found at its leftmost place
// after the previous one, and the last must end the name.
func Match(pattern, name string) bool {
	prefix, rest, ok := strings.Cut(pattern, "*")
	if !ok {
		return pattern == name
	}
	if !strings.HasPrefix(name, prefix) {
		return false
	}
	name = name[len(prefix):]
	for {
		part, tail, more := strings.Cut(rest, "*")
		if !more {
			return strings.HasSuffix(name, part)
		}
		i := strings.Index(name, part)
		if i < 0 {
			return false
		}
		name, rest = name[i+len(part):], tail
	}
}
