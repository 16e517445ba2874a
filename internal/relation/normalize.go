package relation

import (
	"unicode"
	"unicode/utf8"
)

// AppendNormal appends the normal form of s — lower-case, trimmed,
// inner whitespace collapsed: strings.Join(strings.Fields(
// strings.ToLower(s)), " "), byte for byte — to dst, in one pass.
// ASCII is lower-cased and its spaces collapsed a byte at a time; the
// first byte past ASCII hands the rest to the rune loop. The lookup
// keys and the forms they are compared with are written by it, into a
// buffer on the caller's stack, so no lookup makes a string.
func AppendNormal(dst []byte, s string) []byte {
	start := len(dst)
	sep := false
	i := 0
	for ; i < len(s) && s[i] < utf8.RuneSelf; i++ {
		c := s[i]
		if c == ' ' || '\t' <= c && c <= '\r' {
			sep = len(dst) > start
			continue
		}
		if sep {
			dst = append(dst, ' ')
			sep = false
		}
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		dst = append(dst, c)
	}
	// Ranging decodes invalid UTF-8 to utf8.RuneError, which is written
	// out as U+FFFD: what strings.ToLower makes of it.
	for _, r := range s[i:] {
		if unicode.IsSpace(r) {
			sep = len(dst) > start
			continue
		}
		if sep {
			dst = append(dst, ' ')
			sep = false
		}
		dst = utf8.AppendRune(dst, unicode.ToLower(r))
	}
	return dst
}
