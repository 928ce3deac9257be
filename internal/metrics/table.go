package metrics

import (
	"fmt"
	"strings"
	"unicode/utf8"
)

// Table renders aligned plain-text tables in the style of the paper's
// Tables I-III. Cells are strings; numeric helpers format consistently.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row. Short rows are padded with empty cells; long rows
// extend the column count.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// AddRowf appends a single-cell row with Sprintf formatting, useful for
// footnotes and spanning annotations.
func (t *Table) AddRowf(format string, args ...any) {
	t.Rows = append(t.Rows, []string{fmt.Sprintf(format, args...)})
}

// F formats a float with 2 decimal places, the precision used in Table II.
func F(x float64) string { return fmt.Sprintf("%.2f", x) }

// I formats an int.
func I(x int) string { return fmt.Sprintf("%d", x) }

func (t *Table) columnWidths() []int {
	n := len(t.Headers)
	for _, r := range t.Rows {
		if len(r) > n {
			n = len(r)
		}
	}
	w := make([]int, n)
	for i, h := range t.Headers {
		if utf8.RuneCountInString(h) > w[i] {
			w[i] = utf8.RuneCountInString(h)
		}
	}
	for _, r := range t.Rows {
		// Rows that span (fewer cells than columns) don't constrain widths
		// beyond their own cells.
		for i, c := range r {
			if len(r) > 1 && utf8.RuneCountInString(c) > w[i] {
				w[i] = utf8.RuneCountInString(c)
			}
		}
	}
	return w
}

// String renders the table.
func (t *Table) String() string {
	var b strings.Builder
	w := t.columnWidths()
	total := 0
	for _, x := range w {
		total += x
	}
	total += 3 * (len(w) - 1)
	if total < len(t.Title) {
		total = len(t.Title)
	}
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
		b.WriteString(strings.Repeat("=", total))
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		if len(cells) == 1 && len(w) > 1 {
			// Spanning row.
			b.WriteString(cells[0])
			b.WriteByte('\n')
			return
		}
		for i, c := range cells {
			if i > 0 {
				b.WriteString(" | ")
			}
			pad := 0
			if i < len(w) {
				pad = w[i] - utf8.RuneCountInString(c)
			}
			b.WriteString(c)
			if i < len(cells)-1 && pad > 0 {
				b.WriteString(strings.Repeat(" ", pad))
			}
		}
		b.WriteByte('\n')
	}
	if len(t.Headers) > 0 {
		writeRow(t.Headers)
		b.WriteString(strings.Repeat("-", total))
		b.WriteByte('\n')
	}
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}
