package benchkit

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Table is a rendered experiment result: one row per x-axis point.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// Render formats the table as aligned text.
func (t *Table) Render() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	b.WriteString(t.Title)
	b.WriteString("\n")
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteString("\n")
	}
	writeRow(t.Columns)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// num prints whole numbers bare and everything else to three decimals.
func num(v float64) string {
	if v == math.Trunc(v) {
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
	return strconv.FormatFloat(v, 'f', 3, 64)
}

// ParamsTable renders Table 1.
func ParamsTable() *Table {
	return &Table{
		Title:   "Table 1: experimental parameters (defaults in CAPS)",
		Columns: []string{"parameter", "values"},
		Rows: [][]string{
			{"Size of data (units)", "1, 2, 3, 4, FIVE"},
			{"# keywords", "1, TWO, 3, 4, 5"},
			{"Selectivity of keywords", "low(ieee,computing), MEDIUM(thomas,control), high(moore,burnett)"},
			{"# of joins", "0, ONE, 2, 3, 4"},
			{"Join selectivity", "1X(default), 0.5X, 0.2X, 0.1X"},
			{"Level of nestings", "1, TWO, 3, 4"},
			{"# of results (K)", "1, TEN, 20, 30, 40"},
			{"Avg. size of view element", "1X(default), 2X, 3X, 4X, 5X"},
		},
	}
}
