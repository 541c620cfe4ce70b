// Package htmlx implements the HTML substrate of DART's extraction path: a
// tolerant tokenizer for the HTML subset the acquisition module produces,
// and a table model that expands rowspan/colspan cells into a rectangular
// grid. Handling tables with "variable" structure — cells spanning multiple
// rows and columns with no pre-determined scheme — is one of the paper's
// claimed novelties (Section 1, contribution 1), exercised here by the
// multi-row Year cells of Fig. 1.
package htmlx

import (
	"strings"
)

// TokenKind classifies tokens.
type TokenKind int

const (
	// TokenText is character data between tags (entity-decoded).
	TokenText TokenKind = iota
	// TokenStartTag is an opening tag (possibly self-closing).
	TokenStartTag
	// TokenEndTag is a closing tag.
	TokenEndTag
)

// Token is one lexical unit of an HTML document.
type Token struct {
	Kind TokenKind
	Name string // tag name, lower-cased (start/end tags)
	Text string // character data (text tokens)
	// Attrs maps lower-cased attribute names to entity-decoded values. It is
	// nil for end tags and for start tags without attributes.
	Attrs       map[string]string
	SelfClosing bool
}

// Tokenize splits HTML source into tokens. It is deliberately tolerant:
// unknown constructs are skipped, attributes may be unquoted, comments and
// doctypes are dropped. Script and style elements are skipped entirely.
func Tokenize(src string) []Token {
	var toks []Token
	z := tokenizer{src: src}
	for tok, ok := z.next(); ok; tok, ok = z.next() {
		toks = append(toks, tok)
	}
	return toks
}

// tokenizer yields the tokens of src one at a time. Text tokens are
// substrings of src, copied only when DecodeEntities rewrites them.
type tokenizer struct {
	src string
	i   int // offset of the next unread byte
}

// next returns the next token; ok is false once the input is exhausted.
func (z *tokenizer) next() (Token, bool) {
	src := z.src
	for z.i < len(src) {
		i := z.i
		// Character data runs to the next markup. A '<' that opens no
		// comment or declaration and has no '>' after it is not markup: it
		// and the rest of the input are text.
		end := len(src)
		if j := strings.IndexByte(src[i:], '<'); j >= 0 && !isJunk(src[i+j:]) {
			end = i + j
		}
		if end > i {
			z.i = end
			return Token{Kind: TokenText, Text: DecodeEntities(src[i:end])}, true
		}
		// Comment?
		if strings.HasPrefix(src[i:], "<!--") {
			e := strings.Index(src[i+4:], "-->")
			if e < 0 {
				break
			}
			z.i = i + 4 + e + 3
			continue
		}
		// Doctype or other declaration. Neither it nor a tag can lack its
		// '>': isJunk turned such a '<' into text above.
		e := strings.IndexByte(src[i:], '>')
		if strings.HasPrefix(src[i:], "<!") || strings.HasPrefix(src[i:], "<?") {
			if e < 0 {
				break
			}
			z.i = i + e + 1
			continue
		}
		// Tag.
		z.i = i + e + 1
		tok, ok := parseTag(src[i+1 : i+e])
		if !ok {
			continue
		}
		// Skip raw content of script/style.
		if tok.Kind == TokenStartTag && !tok.SelfClosing && (tok.Name == "script" || tok.Name == "style") {
			if c := indexCloser(src[z.i:], tok.Name); c >= 0 {
				z.i += c
			} else {
				z.i = len(src)
			}
		}
		return tok, true
	}
	z.i = len(src)
	return Token{}, false
}

// isJunk reports whether s, which starts with '<', is a stray '<': neither
// a comment or declaration nor followed by a '>' closing a tag.
func isJunk(s string) bool {
	return !strings.HasPrefix(s, "<!") && !strings.HasPrefix(s, "<?") && strings.IndexByte(s, '>') < 0
}

// indexCloser returns the offset in s of the first "</" followed by name
// in any ASCII letter case, or -1. name is lower-case ASCII.
func indexCloser(s, name string) int {
	for off := 0; ; {
		j := strings.Index(s[off:], "</")
		if j < 0 {
			return -1
		}
		at := off + j
		if k := at + 2; len(s)-k >= len(name) && equalFoldASCII(s[k:k+len(name)], name) {
			return at
		}
		off = at + 1
	}
}

// equalFoldASCII reports whether s equals the lower-case ASCII string lower
// after lower-casing s's ASCII letters.
func equalFoldASCII(s, lower string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != lower[i] {
			return false
		}
	}
	return true
}

// parseTag parses the inside of <...>.
func parseTag(raw string) (Token, bool) {
	raw = strings.TrimSpace(raw)
	if raw == "" {
		return Token{}, false
	}
	end := false
	if raw[0] == '/' {
		end = true
		raw = strings.TrimSpace(raw[1:])
	}
	selfClosing := false
	if strings.HasSuffix(raw, "/") {
		selfClosing = true
		raw = strings.TrimSpace(raw[:len(raw)-1])
	}
	// Tag name.
	j := 0
	for j < len(raw) && !isSpace(raw[j]) {
		j++
	}
	name := strings.ToLower(raw[:j])
	if name == "" {
		return Token{}, false
	}
	if end {
		return Token{Kind: TokenEndTag, Name: name}, true
	}
	tok := Token{Kind: TokenStartTag, Name: name, SelfClosing: selfClosing}
	// Attributes.
	k := j
	for k < len(raw) {
		for k < len(raw) && isSpace(raw[k]) {
			k++
		}
		if k >= len(raw) {
			break
		}
		start := k
		for k < len(raw) && raw[k] != '=' && !isSpace(raw[k]) {
			k++
		}
		attr := strings.ToLower(raw[start:k])
		val := ""
		for k < len(raw) && isSpace(raw[k]) {
			k++
		}
		if k < len(raw) && raw[k] == '=' {
			k++
			for k < len(raw) && isSpace(raw[k]) {
				k++
			}
			if k < len(raw) && (raw[k] == '"' || raw[k] == '\'') {
				q := raw[k]
				k++
				vs := k
				for k < len(raw) && raw[k] != q {
					k++
				}
				val = raw[vs:k]
				if k < len(raw) {
					k++
				}
			} else {
				vs := k
				for k < len(raw) && !isSpace(raw[k]) {
					k++
				}
				val = raw[vs:k]
			}
		}
		if attr != "" {
			if tok.Attrs == nil {
				tok.Attrs = map[string]string{}
			}
			tok.Attrs[attr] = DecodeEntities(val)
		}
	}
	return tok, true
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

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
