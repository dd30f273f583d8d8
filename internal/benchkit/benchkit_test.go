package benchkit

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"vxml/internal/xq"
)

func TestDefaultMatchesTable1(t *testing.T) {
	p := Default()
	if p.SizeUnits != 5 || p.NumKeywords != 2 || p.Selectivity != "medium" ||
		p.NumJoins != 1 || p.JoinPartitions != 1 || p.Nesting != 2 ||
		p.TopK != 10 || p.ElemSizeX != 1 {
		t.Errorf("defaults diverge from Table 1: %+v", p)
	}
}

func TestKeywordsPerSelectivity(t *testing.T) {
	p := Default()
	cases := map[string]string{"low": "ieee", "medium": "thomas", "high": "moore"}
	for sel, first := range cases {
		p.Selectivity = sel
		kws := p.Keywords()
		if len(kws) != 2 || kws[0] != first {
			t.Errorf("%s keywords = %v", sel, kws)
		}
	}
	p.Selectivity = "medium"
	for n := 1; n <= 5; n++ {
		p.NumKeywords = n
		if got := len(p.Keywords()); got != n {
			t.Errorf("NumKeywords=%d -> %d keywords", n, got)
		}
	}
}

// TestViewTextsParseAndAnalyze: every parameter combination must yield a
// view that parses and produces QPTs for the right documents.
func TestViewTextsParseAndAnalyze(t *testing.T) {
	for joins := 0; joins <= 4; joins++ {
		for nesting := 1; nesting <= 4; nesting++ {
			p := Default()
			p.NumJoins = joins
			p.Nesting = nesting
			text := p.ViewText()
			q, err := xq.Parse(text)
			if err != nil {
				t.Fatalf("joins=%d nesting=%d: parse: %v\n%s", joins, nesting, err, text)
			}
			_ = q
		}
	}
}

func TestViewTextJoinChain(t *testing.T) {
	p := Default()
	p.NumJoins = 4
	text := p.ViewText()
	for _, doc := range []string{"inex.xml", "authors.xml", "topics.xml", "venues.xml"} {
		if !strings.Contains(text, doc) {
			t.Errorf("joins=4 view missing %s:\n%s", doc, text)
		}
	}
	p.NumJoins = 0
	text = p.ViewText()
	if strings.Contains(text, "authors.xml") {
		t.Errorf("joins=0 view should be selection-only:\n%s", text)
	}
}

func TestViewTextNesting(t *testing.T) {
	p := Default()
	p.Nesting = 4
	text := p.ViewText()
	for _, doc := range []string{"countries.xml", "affils.xml", "authors.xml", "inex.xml"} {
		if !strings.Contains(text, doc) {
			t.Errorf("nesting=4 view missing %s", doc)
		}
	}
}

func TestBuildWorkload(t *testing.T) {
	p := smallParams(1)
	w, err := Build(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.View.QPTs) < 2 {
		t.Errorf("QPTs = %d (expected inex + authors)", len(w.View.QPTs))
	}
	if w.Engine.Store.TotalBytes() == 0 {
		t.Error("empty corpus")
	}
	stats, err := w.RunEfficient()
	if err != nil {
		t.Fatal(err)
	}
	if stats.ViewResults == 0 {
		t.Error("view produced no results")
	}
	if d, nodes := w.RunProj(); d <= 0 || nodes == 0 {
		t.Errorf("proj: %v, %d nodes", d, nodes)
	}
}

func TestTableRender(t *testing.T) {
	table := &Table{
		Title:   "T",
		Columns: []string{"a", "bbbb"},
		Rows:    [][]string{{"xxxxx", "y"}},
	}
	out := table.Render()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[1], "a    ") {
		t.Errorf("header misaligned: %q", lines[1])
	}
	if !strings.HasPrefix(lines[2], "xxxxx") {
		t.Errorf("row misaligned: %q", lines[2])
	}
}

func TestParamsTable(t *testing.T) {
	out := ParamsTable().Render()
	for _, want := range []string{"# keywords", "Join selectivity", "FIVE"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing %q", want)
		}
	}
}

// TestFiguresAreWellFormed: Figures 13-21 each appear once, in order
// (bench_test.go indexes them by number), and the points of a sweep are distinct
// configurations with distinct labels.
func TestFiguresAreWellFormed(t *testing.T) {
	figs := Figures()
	if len(figs) != 9 {
		t.Fatalf("%d figures, want 9 (Figures 13-21)", len(figs))
	}
	names := map[string]bool{}
	for i, f := range figs {
		if !strings.HasPrefix(f.Name, fmt.Sprintf("fig%d_", 13+i)) || f.Description == "" || len(f.Points) == 0 {
			t.Fatalf("malformed figure %d: %+v", i, f)
		}
		if names[f.Name] {
			t.Fatalf("duplicate figure name %q", f.Name)
		}
		names[f.Name] = true
		labels, configs := map[string]bool{}, map[Params]bool{}
		for _, pt := range f.Points {
			p := Default()
			pt.Set(&p)
			if labels[pt.Label] || configs[p] {
				t.Errorf("%s: point %q repeats a label or a configuration", f.Name, pt.Label)
			}
			labels[pt.Label], configs[p] = true, true
		}
	}
	if !figs[0].Comparators {
		t.Error("Figure 13 must time the comparators")
	}
}

// TestFigureRunnersSmall runs every figure at tiny scale: each table must
// carry one line per sweep point and the module breakdown.
func TestFigureRunnersSmall(t *testing.T) {
	prof := Profile{Name: "test", UnitBytes: 8 << 10, Budget: time.Millisecond}
	for _, f := range Figures() {
		table, err := f.Run(prof, 42)
		if err != nil {
			t.Errorf("%s: %v", f.Name, err)
			continue
		}
		if len(table.Rows) != len(f.Points) {
			t.Errorf("%s: %d rows for %d points", f.Name, len(table.Rows), len(f.Points))
		}
		for _, row := range table.Rows {
			if len(row) != len(table.Columns) {
				t.Errorf("%s: row %v has %d cells for %d columns", f.Name, row, len(row), len(table.Columns))
			}
		}
		out := table.Render()
		if lines := strings.Count(out, "\n"); lines != len(f.Points)+2 {
			t.Errorf("%s: table has %d lines for %d points:\n%s", f.Name, lines, len(f.Points), out)
		}
		if !strings.Contains(out, "pdt_ns") {
			t.Errorf("%s: table lacks the module breakdown:\n%s", f.Name, out)
		}
	}
}
