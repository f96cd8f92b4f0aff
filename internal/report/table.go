// Package report renders analysis results as aligned text tables and ASCII
// charts — the repository's equivalent of the paper's tables and figures.
// Every renderer returns a string so callers decide where output goes.
package report

import (
	"fmt"
	"math"
	"strings"
)

// Table is a simple column-aligned text table builder.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.header))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table with two-space column separation and a rule
// under the header.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	writeRow(t.header)
	total := 0
	for _, w := range widths {
		total += w
	}
	b.WriteString(strings.Repeat("-", total+2*(len(widths)-1)))
	b.WriteString("\n")
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// Bar renders a horizontal ASCII bar of the given value scaled so that
// maxValue maps to width characters.
func Bar(value, maxValue float64, width int) string {
	if maxValue <= 0 || value < 0 || width <= 0 {
		return ""
	}
	n := int(value / maxValue * float64(width))
	if n > width {
		n = width
	}
	return strings.Repeat("#", n)
}

// BarChart renders labeled values as a horizontal ASCII bar chart with the
// numeric value appended.
func BarChart(labels []string, values []float64, width int) string {
	maxVal := 0.0
	maxLabel := 0
	for i, v := range values {
		if v > maxVal {
			maxVal = v
		}
		if len(labels[i]) > maxLabel {
			maxLabel = len(labels[i])
		}
	}
	var b strings.Builder
	for i, v := range values {
		fmt.Fprintf(&b, "%-*s |%-*s %.4g\n", maxLabel, labels[i], width, Bar(v, maxVal, width), v)
	}
	return b.String()
}

// FormatCount formats an integer with thousands separators for readability.
func FormatCount(n int) string {
	s := fmt.Sprintf("%d", n)
	if len(s) <= 3 {
		return s
	}
	var b strings.Builder
	lead := len(s) % 3
	if lead > 0 {
		b.WriteString(s[:lead])
	}
	for i := lead; i < len(s); i += 3 {
		if b.Len() > 0 {
			b.WriteString(",")
		}
		b.WriteString(s[i : i+3])
	}
	return b.String()
}

// FormatStat formats one statistic with the given fmt verb, rendering the
// undefined case (NaN, e.g. C² of a zero-mean sample) as "undef" instead
// of a misleading numeric cell.
func FormatStat(format string, v float64) string {
	if math.IsNaN(v) {
		return "undef"
	}
	return fmt.Sprintf(format, v)
}
