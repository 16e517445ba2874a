package relation

import (
	"math/rand"
	"strings"
	"testing"
)

// TestNormalizeMatchesReference holds the one-pass normalization (and
// its already-normal shortcut) to the expression it replaced, byte for
// byte: generated strings over an alphabet of cases, every kind of
// space, multi-byte runes whose case maps change length, and invalid
// UTF-8.
func TestNormalizeMatchesReference(t *testing.T) {
	reference := func(s string) string {
		return strings.Join(strings.Fields(strings.ToLower(s)), " ")
	}
	alphabet := []string{"a", "b", "z", "A", "Q", " ", " ", "\t", "\n", "\r", "\v", "\f",
		"\u00e9", "\u00c9", "\u0130", "\u023a", "\u00df", "\u00a0", "\u0085", "\u2003", "\u3000", "\u4e16",
		"\xff", "\xc3", "\xe2\x82", "'", "0"}
	rng := rand.New(rand.NewSource(20))
	cases := []string{"", " ", "  ", "a", " a", "a ", "a  b", "ab \tcd", "ab \t", "ab Cd", "ab C", "dan suciu", "Dan Suciu", "a b c"}
	for i := 0; i < 20000; i++ {
		var b strings.Builder
		for n := rng.Intn(8); n > 0; n-- {
			b.WriteString(alphabet[rng.Intn(len(alphabet))])
		}
		cases = append(cases, b.String())
	}
	for _, s := range cases {
		want := reference(s)
		if got := normalize(s); got != want {
			t.Fatalf("normalize(%q) = %q, want %q", s, got, want)
		}
		// The shortcut covers ASCII; other strings are always rebuilt.
		ascii := strings.IndexFunc(s, func(r rune) bool { return r >= 0x80 }) < 0
		if ascii && want == s && normalPrefix(s) != len(s) {
			t.Errorf("normalize(%q) rebuilt a string already in normal form", s)
		}
	}
}

// FuzzNormalize checks normalize, its ASCII byte loop and the rune loop
// it hands off to, against TestNormalizeMatchesReference's reference on
// arbitrary bytes, valid UTF-8 or not.
func FuzzNormalize(f *testing.F) {
	for _, s := range []string{"", " ", "Dan  Suciu", "ab \tCD ", "caf\u00c9 \u00a0X", "A\u0130b", "\xffA  b", "x\u3000 Y"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if got, want := normalize(s), strings.Join(strings.Fields(strings.ToLower(s)), " "); got != want {
			t.Fatalf("normalize(%q) = %q, want %q", s, got, want)
		}
	})
}

// FuzzAppendNormal holds AppendNormal, which writes the lookup keys
// and the forms they are compared with, to normalize, past a prefix of
// the fuzzed bytes.
func FuzzAppendNormal(f *testing.F) {
	for _, c := range [][2]string{{"", ""}, {"Dan  Suciu", "x"}, {"Dan Suciu", ""}, {" ab", "ab c"},
		{"A\u0130b", "y"}, {"STRA\u1e9eE", ""}, {"\xffA  b", ""}, {"a\x00B", "a"}, {"x\u3000 Y", ""}, {"a b ", ""}} {
		f.Add(c[0], c[1])
	}
	f.Fuzz(func(t *testing.T, v, prefix string) {
		if got, want := string(AppendNormal([]byte(prefix), v)), prefix+normalize(v); got != want {
			t.Fatalf("AppendNormal(%q, %q) = %q, want %q", prefix, v, got, want)
		}
	})
}
