package experiments

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/sim"
)

// This file is the single row-writer behind every figure/sweep printer:
// one place that formats titles and headers, renders floats at the
// conventional precisions, and applies CSV escaping. The per-experiment
// printers declare their columns and hand cells to these writers instead of
// hand-rolling fmt strings.

// Cell value wrappers select the canonical rendering for CSV cells:
//
//	secs  simulated time as seconds, 6 decimals (the plotting precision)
//	fix2  fixed 2-decimal float (CVs, loads, ratios shown coarsely)
//	fix4  fixed 4-decimal float (fractions, fine ratios)
//
// Plain string, int, int64, float64 (%g), bool and fmt.Stringer cells
// render directly; strings pass through csvEscape.
type (
	secs sim.Time
	fix2 float64
	fix4 float64
)

// csvWriter accumulates one CSV document: a header row and typed cells.
type csvWriter struct {
	b strings.Builder
}

// newCSV starts a document with the given header columns.
func newCSV(cols ...string) *csvWriter {
	w := &csvWriter{}
	for i, c := range cols {
		if i > 0 {
			w.b.WriteByte(',')
		}
		w.b.WriteString(csvEscape(c))
	}
	w.b.WriteByte('\n')
	return w
}

// Row appends one record; each cell renders per its wrapper type.
func (w *csvWriter) Row(cells ...any) {
	for i, c := range cells {
		if i > 0 {
			w.b.WriteByte(',')
		}
		w.b.WriteString(csvCell(c))
	}
	w.b.WriteByte('\n')
}

func (w *csvWriter) String() string { return w.b.String() }

func csvCell(c any) string {
	if s, ok := scalarCell(c); ok {
		return s
	}
	switch v := c.(type) {
	case string:
		return csvEscape(v)
	case fmt.Stringer:
		return csvEscape(v.String())
	default:
		return csvEscape(fmt.Sprint(v))
	}
}

// scalarCell renders the numeric and boolean cells, which are spelled the
// same in CSV and JSON — a plotting pipeline switching formats sees the
// same digits.
func scalarCell(c any) (string, bool) {
	switch v := c.(type) {
	case secs:
		return fmt.Sprintf("%.6f", sim.Time(v).Seconds()), true
	case fix2:
		return fmt.Sprintf("%.2f", float64(v)), true
	case fix4:
		return fmt.Sprintf("%.4f", float64(v)), true
	case float64:
		return fmt.Sprintf("%g", v), true
	case int:
		return strconv.Itoa(v), true
	case int64:
		return strconv.FormatInt(v, 10), true
	case bool:
		return strconv.FormatBool(v), true
	}
	return "", false
}

// csvEscape quotes a field that contains a separator, quote or newline —
// RFC 4180 style. Fields that need no quoting pass through unchanged, so
// historical output bytes are preserved.
func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

// jsonWriter accumulates one JSON document: an array with one object per
// row, sharing the csvWriter's column names and typed cells so the CSV and
// JSON renderings of an experiment can never drift apart. Output is
// byte-stable: fields keep declaration order, one row per line, numbers
// rendered exactly like their CSV cells.
type jsonWriter struct {
	cols []string
	b    strings.Builder
	rows int
}

// newJSON starts a document with the given column names.
func newJSON(cols ...string) *jsonWriter {
	w := &jsonWriter{cols: cols}
	w.b.WriteByte('[')
	return w
}

// Row appends one object; cells pair positionally with the columns.
func (w *jsonWriter) Row(cells ...any) {
	if len(cells) != len(w.cols) {
		panic(fmt.Sprintf("experiments: json row has %d cells for %d columns", len(cells), len(w.cols)))
	}
	if w.rows > 0 {
		w.b.WriteByte(',')
	}
	w.b.WriteString("\n  {")
	for i, c := range cells {
		if i > 0 {
			w.b.WriteByte(',')
		}
		w.b.WriteString(strconv.Quote(w.cols[i]))
		w.b.WriteByte(':')
		w.b.WriteString(jsonCell(c))
	}
	w.b.WriteByte('}')
	w.rows++
}

// String closes the array. Safe to call once.
func (w *jsonWriter) String() string {
	if w.rows > 0 {
		w.b.WriteByte('\n')
	}
	w.b.WriteString("]\n")
	return w.b.String()
}

// jsonObject renders a single flat object (one row, named fields) — the
// shape single-run summaries use. Same typed cells as the row writers.
type jsonObject struct {
	b strings.Builder
	n int
}

func newJSONObject() *jsonObject {
	o := &jsonObject{}
	o.b.WriteByte('{')
	return o
}

func (o *jsonObject) field(name string, cell any) *jsonObject {
	if o.n > 0 {
		o.b.WriteByte(',')
	}
	o.b.WriteString("\n  ")
	o.b.WriteString(strconv.Quote(name))
	o.b.WriteString(": ")
	o.b.WriteString(jsonCell(cell))
	o.n++
	return o
}

func (o *jsonObject) String() string {
	if o.n > 0 {
		o.b.WriteByte('\n')
	}
	o.b.WriteString("}\n")
	return o.b.String()
}

// jsonCell renders one typed cell as a JSON value: scalars exactly as in
// csvCell, everything else as a quoted string.
func jsonCell(c any) string {
	if s, ok := scalarCell(c); ok {
		return s
	}
	switch v := c.(type) {
	case string:
		return strconv.Quote(v)
	case fmt.Stringer:
		return strconv.Quote(v.String())
	default:
		return strconv.Quote(fmt.Sprint(v))
	}
}

// Exported row-document surface for tools outside the package (cmd/sweep,
// cmd/faultstudy): the same typed cells and writers the experiment views
// use, so a tool's CSV and JSON renderings of one row feed can
// never drift apart — and a row computed from a cluster worker's wire
// summary formats byte-identically to the locally-computed one.

// Secs renders a simulated time as seconds with 6 decimals.
func Secs(t sim.Time) any { return secs(t) }

// Fix2 renders a float at fixed 2 decimals.
func Fix2(v float64) any { return fix2(v) }

// Fix4 renders a float at fixed 4 decimals.
func Fix4(v float64) any { return fix4(v) }

// Doc accumulates one row document in a chosen format. csvWriter and
// jsonWriter are its two implementations.
type Doc interface {
	// Row appends one record of typed cells (see Secs, Fix2, Fix4).
	Row(cells ...any)
	// String finalizes and returns the document. Call once.
	String() string
}

// NewDoc starts a document with the given header columns. CSV and JSON are
// supported; Table callers keep their historical hand-rolled layouts.
func NewDoc(f Format, cols ...string) (Doc, error) {
	if d := newDoc(f, cols); d != nil {
		return d, nil
	}
	return nil, fmt.Errorf("experiments: no row document for format %q", f)
}

// newDoc is NewDoc without the error: nil for Table.
func newDoc(f Format, cols []string) Doc {
	switch f {
	case CSV:
		return newCSV(cols...)
	case JSON:
		return newJSON(cols...)
	}
	return nil
}

// textTable accumulates one human-readable table: a title line, a header
// line and formatted rows. Header and row layouts are fmt strings so each
// experiment keeps its historical column widths exactly.
type textTable struct {
	b strings.Builder
}

// newText starts a table with its title line.
func newText(title string) *textTable {
	t := &textTable{}
	t.b.WriteString(title)
	t.b.WriteByte('\n')
	return t
}

// linef appends one formatted line (header or row).
func (t *textTable) linef(format string, args ...any) {
	fmt.Fprintf(&t.b, format, args...)
}

func (t *textTable) String() string { return t.b.String() }

// fmtSec renders simulated time as seconds for table cells.
func fmtSec(t sim.Time) string {
	return fmt.Sprintf("%.3fs", t.Seconds())
}

// safeRatio is num/den with the zero-denominator guard every ratio column
// needs.
func safeRatio(num, den sim.Time) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
