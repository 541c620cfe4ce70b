// Package convert is the acquisition module's format-conversion stage
// (Section 6.1): input documents that are not already HTML are normalized
// into HTML before extraction. The paper's implementation shells out to
// PDF/MSWord/RTF converters and an OCR tool; this package handles the two
// formats the simulated pipeline produces — HTML itself and the plain
// "scan text" layer that stands in for OCR output of paper documents.
package convert

import (
	"fmt"
	"strings"

	"dart/internal/htmlx"
)

// Format identifies an input document format.
type Format int

const (
	// FormatHTML is an HTML document, passed through unchanged.
	FormatHTML Format = iota
	// FormatScanText is the pipe-separated text layer produced by the OCR
	// simulation for paper documents.
	FormatScanText
)

// String names the format.
func (f Format) String() string {
	switch f {
	case FormatHTML:
		return "html"
	case FormatScanText:
		return "scantext"
	default:
		return fmt.Sprintf("Format(%d)", int(f))
	}
}

// Detect guesses the format of a source document: anything starting with an
// HTML construct is HTML, otherwise scan text. No rune outside ASCII folds
// to a letter of the prefixes it looks for, so folding the head of the
// document equals testing a lower-cased copy of all of it.
func Detect(src string) Format {
	s := strings.TrimSpace(src)
	hasPrefix := func(p string) bool { return len(s) >= len(p) && strings.EqualFold(s[:len(p)], p) }
	if hasPrefix("<!doctype") || hasPrefix("<html") || hasPrefix("<table") {
		return FormatHTML
	}
	return FormatScanText
}

// ToHTML converts a source document of the given format into HTML.
func ToHTML(src string, f Format) (string, error) {
	switch f {
	case FormatHTML:
		return src, nil
	case FormatScanText:
		return ScanTextToHTML(src), nil
	default:
		return "", fmt.Errorf("convert: unsupported format %v", f)
	}
}

// ScanTextToHTML rebuilds an HTML document from a scan-text layer: lines of
// pipe-separated cells become table rows; "== title ==" lines become the
// document title (the last one counts); "-- caption --" lines become table
// captions; blank lines separate tables, and a table without rows is
// dropped with its caption. Spans are not reconstructed — the scanner saw
// repeated values, and the wrapper's matching works on the repeated form
// just as it does on the rowspan form.
//
// The HTML is written in one pass over the lines into a buffer sized from
// the text; only the title is looked up beforehand, because it heads the
// document.
func ScanTextToHTML(text string) string {
	// A row line gains 21 bytes of tags plus 8 per '|' beyond its text;
	// the slack per line and the constant cover table tags and the head.
	var b strings.Builder
	b.Grow(len(text) + 24*strings.Count(text, "\n") + 8*strings.Count(text, "|") + 128)
	b.WriteString("<!DOCTYPE html>\n<html><head><title>")
	b.WriteString(htmlx.EscapeText(scanTitle(text)))
	b.WriteString("</title></head>\n<body>\n")
	// caption is the pending table's caption; open is true once its first
	// row has been written.
	caption, open := "", false
	flush := func() {
		if open {
			b.WriteString("</table>\n")
		}
		caption, open = "", false
	}
	for rest, more := text, true; more; {
		var line string
		line, rest, more = strings.Cut(rest, "\n")
		line = strings.TrimSpace(line)
		switch {
		case line == "":
			flush()
		case isTitle(line):
			flush()
		case strings.HasPrefix(line, "-- ") && strings.HasSuffix(line, " --"):
			flush()
			caption = strings.TrimSpace(strings.TrimSuffix(strings.TrimPrefix(line, "-- "), " --"))
		default:
			if !open {
				if caption != "" {
					b.WriteString("<h2>")
					b.WriteString(htmlx.EscapeText(caption))
					b.WriteString("</h2>\n")
				}
				b.WriteString("<table>\n")
				open = true
			}
			b.WriteString("  <tr>")
			for cells, more := line, true; more; {
				var c string
				c, cells, more = strings.Cut(cells, "|")
				b.WriteString("<td>")
				b.WriteString(htmlx.EscapeText(strings.TrimSpace(c)))
				b.WriteString("</td>")
			}
			b.WriteString("</tr>\n")
		}
	}
	flush()
	b.WriteString("</body></html>\n")
	return b.String()
}

// isTitle reports whether a trimmed line is a "== title ==" line.
func isTitle(line string) bool {
	return strings.HasPrefix(line, "== ") && strings.HasSuffix(line, " ==")
}

// scanTitle returns the text of the last title line, or the default title.
func scanTitle(text string) string {
	title := "Converted document"
	for rest, more := text, true; more; {
		var line string
		line, rest, more = strings.Cut(rest, "\n")
		if line = strings.TrimSpace(line); isTitle(line) {
			title = strings.TrimSpace(strings.TrimSuffix(strings.TrimPrefix(line, "== "), " =="))
		}
	}
	return title
}
