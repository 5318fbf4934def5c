// Package textmining provides the text-analysis substrate shared by the
// InsightNotes summary types: tokenization, stop-word filtering, light
// stemming, sparse term vectors with cosine similarity, TF-IDF weighting,
// and sentence segmentation for extractive snippets.
//
// The implementations follow the techniques the paper cites: Naive Bayes
// text classification (Manning et al., ref [12]) consumes the token stream;
// stream clustering (ref [23]) and extractive summarization (ref [24]) use
// the term vectors and sentence splitter.
package textmining

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// Tokenize lowercases text and splits it into word tokens consisting of
// letters, digits, and internal apostrophes/hyphens. Punctuation is
// discarded. It performs no stop-word filtering; see Terms for the full
// pipeline.
//
// ASCII input — nearly every annotation — takes a byte loop whose tokens
// are substrings of text, lowered only when they hold an upper-case
// letter; any other input takes the rune loop. Both yield the same tokens.
func Tokenize(text string) []string {
	for i := 0; i < len(text); i++ {
		if text[i] >= utf8.RuneSelf {
			return tokenizeRunes(text)
		}
	}
	var tokens []string
	start := -1 // first byte of the open token, -1 when none is open
	upper, prevLetter := false, false
	flush := func(end int) {
		if start >= 0 {
			// Trim any trailing connector left by inputs like "word-"; a
			// token starts with a letter or digit, so it never empties.
			for text[end-1] == '\'' || text[end-1] == '-' {
				end--
			}
			tok := text[start:end]
			if upper {
				tok = strings.ToLower(tok)
			}
			if tokens == nil {
				tokens = make([]string, 0, len(text)/6+1)
			}
			tokens = append(tokens, tok)
		}
		start, upper = -1, false
	}
	for i := 0; i < len(text); i++ {
		c := text[i]
		switch {
		case 'a' <= c && c <= 'z', '0' <= c && c <= '9':
		case 'A' <= c && c <= 'Z':
			upper = true
		case (c == '\'' || c == '-') && prevLetter:
			// keep intra-word apostrophes and hyphens ("don't", "blue-gray")
			prevLetter = false
			continue
		default:
			flush(i)
			prevLetter = false
			continue
		}
		if start < 0 {
			start = i
		}
		prevLetter = true
	}
	flush(len(text))
	return tokens
}

// tokenizeRunes is Tokenize for input holding non-ASCII text.
func tokenizeRunes(text string) []string {
	var tokens []string
	var b strings.Builder
	flush := func() {
		if b.Len() > 0 {
			tokens = append(tokens, b.String())
			b.Reset()
		}
	}
	prevLetter := false
	for _, r := range text {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			b.WriteRune(unicode.ToLower(r))
			prevLetter = true
		case (r == '\'' || r == '-') && prevLetter && b.Len() > 0:
			// keep intra-word apostrophes and hyphens ("don't", "blue-gray")
			b.WriteRune(r)
			prevLetter = false
		default:
			flush()
			prevLetter = false
		}
	}
	flush()
	// Trim any trailing connector left by inputs like "word-".
	for i, t := range tokens {
		tokens[i] = strings.TrimRight(t, "'-")
	}
	return tokens
}

// Stem applies a light suffix-stripping stemmer (a small subset of Porter's
// rules) good enough to conflate simple morphological variants such as
// "feeding"/"feeds"/"feed" without the complexity of a full stemmer.
func Stem(token string) string {
	t := token
	if len(t) > 4 {
		switch {
		case strings.HasSuffix(t, "ies"):
			t = t[:len(t)-3] + "y"
		case strings.HasSuffix(t, "sses"):
			t = t[:len(t)-2]
		case strings.HasSuffix(t, "ing") && len(t) > 5:
			t = t[:len(t)-3]
		case strings.HasSuffix(t, "edly") && len(t) > 6:
			t = t[:len(t)-4]
		case strings.HasSuffix(t, "ed") && len(t) > 4:
			t = t[:len(t)-2]
		case strings.HasSuffix(t, "ly") && len(t) > 4:
			t = t[:len(t)-2]
		case strings.HasSuffix(t, "es") && len(t) > 4:
			t = t[:len(t)-2]
		case strings.HasSuffix(t, "s") && !strings.HasSuffix(t, "ss"):
			t = t[:len(t)-1]
		}
	} else if len(t) > 3 && strings.HasSuffix(t, "s") && !strings.HasSuffix(t, "ss") {
		t = t[:len(t)-1]
	}
	return t
}

// Terms runs the full analysis pipeline — tokenize, drop stop words and
// single-character tokens, stem — returning the terms used for vectors and
// classification.
func Terms(text string) []string {
	raw := Tokenize(text)
	terms := raw[:0]
	for _, tok := range raw {
		if len(tok) < 2 || IsStopWord(tok) {
			continue
		}
		terms = append(terms, Stem(tok))
	}
	return terms
}
