package convert

import (
	"fmt"
	"strings"

	"dart/internal/htmlx"
)

// refScanTextToHTML is ScanTextToHTML as it was before it wrote its output
// in one pass: it splits the text into lines and cells, gathers the tables,
// then renders them.
func refScanTextToHTML(text string) string {
	var b strings.Builder
	title := "Converted document"
	type table struct {
		caption string
		rows    [][]string
	}
	var tables []*table
	var cur *table
	flush := func() {
		if cur != nil && len(cur.rows) > 0 {
			tables = append(tables, cur)
		}
		cur = nil
	}
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		switch {
		case line == "":
			flush()
		case strings.HasPrefix(line, "== ") && strings.HasSuffix(line, " =="):
			title = strings.TrimSpace(strings.TrimSuffix(strings.TrimPrefix(line, "== "), " =="))
			flush()
		case strings.HasPrefix(line, "-- ") && strings.HasSuffix(line, " --"):
			flush()
			cur = &table{caption: strings.TrimSpace(strings.TrimSuffix(strings.TrimPrefix(line, "-- "), " --"))}
		default:
			if cur == nil {
				cur = &table{}
			}
			cells := strings.Split(line, "|")
			for i := range cells {
				cells[i] = strings.TrimSpace(cells[i])
			}
			cur.rows = append(cur.rows, cells)
		}
	}
	flush()

	b.WriteString("<!DOCTYPE html>\n<html><head><title>")
	b.WriteString(htmlx.EscapeText(title))
	b.WriteString("</title></head>\n<body>\n")
	for _, t := range tables {
		if t.caption != "" {
			fmt.Fprintf(&b, "<h2>%s</h2>\n", htmlx.EscapeText(t.caption))
		}
		b.WriteString("<table>\n")
		for _, row := range t.rows {
			b.WriteString("  <tr>")
			for _, c := range row {
				b.WriteString("<td>")
				b.WriteString(htmlx.EscapeText(c))
				b.WriteString("</td>")
			}
			b.WriteString("</tr>\n")
		}
		b.WriteString("</table>\n")
	}
	b.WriteString("</body></html>\n")
	return b.String()
}

// refDetect is Detect as it was before it compared prefixes in place: it
// lower-cased the whole trimmed document first.
func refDetect(src string) Format {
	s := strings.TrimSpace(src)
	low := strings.ToLower(s)
	if strings.HasPrefix(low, "<!doctype") || strings.HasPrefix(low, "<html") || strings.HasPrefix(low, "<table") {
		return FormatHTML
	}
	return FormatScanText
}
