package htmlx

import "strings"

// entityTable maps the named entities the converter emits.
var entityTable = map[string]string{
	"amp": "&", "lt": "<", "gt": ">", "quot": `"`, "apos": "'", "nbsp": " ",
}

// DecodeEntities resolves named and numeric character references.
func DecodeEntities(s string) string {
	if !strings.Contains(s, "&") {
		return s
	}
	var b strings.Builder
	i := 0
	for i < len(s) {
		c := s[i]
		if c != '&' {
			b.WriteByte(c)
			i++
			continue
		}
		semi := strings.IndexByte(s[i:], ';')
		if semi < 0 || semi > 10 {
			b.WriteByte(c)
			i++
			continue
		}
		ent := s[i+1 : i+semi]
		if rep, ok := entityTable[ent]; ok {
			b.WriteString(rep)
			i += semi + 1
			continue
		}
		if strings.HasPrefix(ent, "#") {
			num := ent[1:]
			base := 10
			if strings.HasPrefix(num, "x") || strings.HasPrefix(num, "X") {
				base = 16
				num = num[1:]
			}
			var r rune
			ok := len(num) > 0
			for _, d := range num {
				var v rune
				switch {
				case d >= '0' && d <= '9':
					v = d - '0'
				case base == 16 && d >= 'a' && d <= 'f':
					v = d - 'a' + 10
				case base == 16 && d >= 'A' && d <= 'F':
					v = d - 'A' + 10
				default:
					ok = false
				}
				if !ok {
					break
				}
				r = r*rune(base) + v
			}
			if ok && r > 0 {
				b.WriteRune(r)
				i += semi + 1
				continue
			}
		}
		b.WriteByte(c)
		i++
	}
	return b.String()
}

// textEscaper is built once: a *strings.Replacer is safe for concurrent use.
var textEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")

// EscapeText escapes character data for embedding in HTML.
func EscapeText(s string) string {
	return textEscaper.Replace(s)
}
