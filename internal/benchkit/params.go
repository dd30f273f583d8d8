// Package benchkit builds the experimental workloads of the paper's §5 and
// runs the four competing pipelines over them. Figures 13-21 of the
// evaluation section are defined here; cmd/vxmlbench and the root
// package's BenchmarkFig13…21 are thin wrappers around this package.
// Post-paper performance is measured by the repository benchmark under
// bench/, not here.
package benchkit

import (
	"fmt"
	"strings"
)

// Params is the experimental parameter space of Table 1. The paper's data
// unit is 100MB; ours is UnitBytes (default 1MB) so the sweeps keep the
// same shape at laptop scale.
type Params struct {
	// SizeUnits is the data size in units (Table 1: 1-5, default 5).
	SizeUnits int
	// UnitBytes is the byte size of one unit (the paper's 100MB).
	UnitBytes int
	// NumKeywords is the query keyword count (1-5, default 2).
	NumKeywords int
	// Selectivity is "low", "medium" or "high" (default medium).
	Selectivity string
	// NumJoins is the number of value joins in the view (0-4, default 1).
	NumJoins int
	// JoinPartitions controls join selectivity: 1=1X, 2=0.5X, 5=0.2X,
	// 10=0.1X (default 1).
	JoinPartitions int
	// Nesting is the FLWOR nesting level (1-4, default 2).
	Nesting int
	// TopK is K in top-K (default 10).
	TopK int
	// ElemSizeX scales the average view element size (1-5, default 1).
	ElemSizeX int
	// Seed drives deterministic data generation.
	Seed int64
}

// Default returns Table 1's default configuration (bold values), scaled to
// the default unit.
func Default() Params {
	return Params{
		SizeUnits:      5,
		UnitBytes:      1 << 20,
		NumKeywords:    2,
		Selectivity:    "medium",
		NumJoins:       1,
		JoinPartitions: 1,
		Nesting:        2,
		TopK:           10,
		ElemSizeX:      1,
		Seed:           42,
	}
}

// TargetBytes is the generated corpus size.
func (p Params) TargetBytes() int { return p.SizeUnits * p.UnitBytes }

// Keywords returns the query keyword set implied by the parameters.
func (p Params) Keywords() []string {
	switch strings.ToLower(p.Selectivity) {
	case "low":
		return clip(lowKeywords, p.NumKeywords)
	case "high":
		return clip(highKeywords, p.NumKeywords)
	default:
		return clip(mediumKeywords, p.NumKeywords)
	}
}

var (
	lowKeywords    = []string{"ieee", "computing", "system", "data", "model"}
	mediumKeywords = []string{"thomas", "control", "fuzzy", "neural", "parallel"}
	highKeywords   = []string{"moore", "burnett", "fuzzy", "neural", "parallel"}
)

func clip(words []string, n int) []string {
	if n <= 0 {
		n = 2
	}
	if n > len(words) {
		n = len(words)
	}
	return words[:n]
}

// ViewText builds the experiment's view definition from the nesting level
// and join count (§5.1: level 1 removes the value join and keeps only the
// selection predicate; level 2 associates publications with authors; deeper
// levels nest the shallower view one level down; extra joins extend the
// value-join chain over the auxiliary documents).
func (p Params) ViewText() string {
	if p.Nesting <= 1 || p.NumJoins == 0 {
		return `
for $a in fn:doc(inex.xml)/books//article
where $a/fm/yr > 1992
return <art>{$a/fm/tl}, {$a/bdy}</art>`
	}
	// innermost: the article loop joined to the author, with optional
	// topic (3rd) and venue (4th) joins nested inside.
	articleExtras := ""
	if p.NumJoins >= 3 {
		articleExtras += `,
      {for $t in fn:doc(topics.xml)/topics//topic
       where $t/tname = $a/fm/kwd
       return <top>{$t/desc}</top>}`
	}
	if p.NumJoins >= 4 {
		articleExtras += `,
      {for $v in fn:doc(venues.xml)/venues//venue
       where $v/vid = $a/vid
       return <ven>{$v/vname}</ven>}`
	}
	articleLoop := fmt.Sprintf(`{for $a in fn:doc(inex.xml)/books//article
     where $a/fm/au = $au/name
     return <art>{$a/fm/tl}, {$a/bdy}%s</art>}`, articleExtras)

	affilExtra := ""
	if p.NumJoins >= 2 && p.Nesting < 3 {
		affilExtra = `
  {for $f in fn:doc(affils.xml)/affils//affil
   where $f/affid = $au/affid
   return <inst>{$f/instname}</inst>},`
	}
	authorView := fmt.Sprintf(`for $au in fn:doc(authors.xml)/authors//author
return <arec>
  <aname>{$au/name}</aname>,%s
  %s
</arec>`, affilExtra, articleLoop)
	if p.Nesting == 2 {
		return authorView
	}

	// nesting 3: affiliations on top of the author view.
	authorLoop := fmt.Sprintf(`{for $au in fn:doc(authors.xml)/authors//author
   where $au/affid = $f/affid
   return <arec><aname>{$au/name}</aname>, %s</arec>}`, articleLoop)
	affilView := fmt.Sprintf(`for $f in fn:doc(affils.xml)/affils//affil
return <frec><inst>{$f/instname}</inst>, %s</frec>`, authorLoop)
	if p.Nesting == 3 {
		return affilView
	}

	// nesting 4: countries on top of the affiliation view.
	affilLoop := fmt.Sprintf(`{for $f in fn:doc(affils.xml)/affils//affil
   where $f/country = $c/cname
   return <frec><inst>{$f/instname}</inst>, %s</frec>}`, authorLoop)
	return fmt.Sprintf(`for $c in fn:doc(countries.xml)/countries//country
return <crec><cn>{$c/cname}</cn>, %s</crec>`, affilLoop)
}
