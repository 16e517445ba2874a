package relation

import (
	"unicode"
	"unicode/utf8"
)

// normalize canonicalizes a lookup string: lower-case, trimmed,
// inner whitespace collapsed — strings.Join(strings.Fields(
// strings.ToLower(s)), " "), byte for byte. A string already in that
// form (the keys themselves, most dictionary values of a lower-case
// column) is returned as it is; any other is rebuilt in one pass.
func normalize(s string) string {
	i := normalPrefix(s)
	if i == len(s) {
		return s
	}
	return string(appendNormalized(make([]byte, 0, len(s)), s, i))
}

// normalPrefix returns how far s is in normal form already: len(s) when
// all of it is, else an index normalization can resume from — before the
// space the normal prefix ends on, if it does, which is then normalized
// with what follows it.
func normalPrefix(s string) int {
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= utf8.RuneSelf || 'A' <= c && c <= 'Z' || '\t' <= c && c <= '\r':
			if i > 0 && s[i-1] == ' ' {
				return i - 1
			}
			return i
		case c == ' ' && (i == 0 || i == len(s)-1 || s[i+1] == ' '):
			return i
		}
	}
	return len(s)
}

// appendNormalized appends the normal form of s, whose first from bytes
// are in normal form already (normalPrefix), to dst. ASCII is
// lower-cased and its spaces collapsed a byte at a time; the first byte
// past ASCII hands the rest to the rune loop.
func appendNormalized(dst []byte, s string, from int) []byte {
	start := len(dst)
	dst = append(dst, s[:from]...)
	sep := false
	i := from
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

// AppendNormal appends the normal form of s to dst, as normalize
// builds it.
func AppendNormal(dst []byte, s string) []byte { return appendNormalized(dst, s, 0) }
