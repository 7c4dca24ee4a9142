// Package report renders the paper's tables and figures from the results
// store, the CIM catalog, and generated Mulini bundles. Figures are
// emitted both as aligned ASCII (for terminals and EXPERIMENTS.md) and as
// CSV series (for plotting tools).
package report

import (
	"fmt"
	"strings"
)

// Table is a simple aligned-text table builder.
type Table struct {
	title   string
	headers []string
	rows    [][]string
}

// NewTable creates a table with a title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{title: title, headers: headers}
}

// AddRow appends a row; missing cells render empty, extra cells are
// dropped to the header width.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.headers))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// Rows reports the number of data rows.
func (t *Table) Rows() int { return len(t.rows) }

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
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
	if t.title != "" {
		fmt.Fprintf(&b, "%s\n", t.title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	writeRow(t.headers)
	var rule []string
	for _, w := range widths {
		rule = append(rule, strings.Repeat("-", w))
	}
	writeRow(rule)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}
