package docname

import "testing"

func TestMatch(t *testing.T) {
	cases := []struct {
		pattern, name string
		want          bool
	}{
		{"books.xml", "books.xml", true},
		{"books.xml", "books2.xml", false},
		{"*", "anything", true},
		{"*", "", true},
		{"part-*", "part-007.xml", true},
		{"part-*", "part-", true},
		{"part-*", "par", false},
		{"*.xml", "books.xml", true},
		{"*.xml", "books.json", false},
		{"part-*.xml", "part-3.xml", true},
		{"part-*.xml", "part-3.json", false},
		{"a*b*c", "abc", true},
		{"a*b*c", "aXXbYYc", true},
		{"a*b*c", "acb", false},
		{"a*b*c", "ab", false},
		// overlapping middle/suffix must not double-count characters
		{"a*bb", "abb", true},
		{"a*bb", "ab", false},
		{"ab*ab", "abab", true},
		{"ab*ab", "aba", false},
		// an empty part between two stars matches anywhere
		{"a**b", "ab", true},
		{"a**b", "aXb", true},
		{"a**b", "ba", false},
		// a trailing star leaves no suffix to match
		{"part-0*", "part-07.xml", true},
		{"part-0*", "part-1.xml", false},
		// a pattern spelling the name exactly, star included
		{"part-*.xml", "part-*.xml", true},
	}
	for _, c := range cases {
		if got := Match(c.pattern, c.name); got != c.want {
			t.Errorf("Match(%q, %q) = %v, want %v", c.pattern, c.name, got, c.want)
		}
	}
	if IsPattern("books.xml") || !IsPattern("part-*") {
		t.Errorf("IsPattern misclassified")
	}
}

// TestMatchAllocatesNothing: Match runs once per candidate document of a
// collection view (core's unit catalog, the stores' InfosMatching).
func TestMatchAllocatesNothing(t *testing.T) {
	var ok bool
	if n := testing.AllocsPerRun(100, func() {
		ok = Match("part-*-*.xml", "part-0017-a.xml") && !Match("a**b*c", "aXbYd")
	}); n != 0 || !ok {
		t.Errorf("Match allocates %v objects (matched %v)", n, ok)
	}
}
