package summary

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"insightnotes/internal/annotation"
)

// awkward holds titles, snippets and previews that Quote copies as is and
// ones it escapes: a quote, a backslash, a tab, DEL, invalid UTF-8 and a
// zero-width space (Quote prints it as \u200b).
var awkward = []string{
	"size seems wrong", `say "hi"`, `back\slash`, "tab\there", "del\x7fete",
	"bad\xffutf8", "zero\u200bwidth", "found eating stonewort…", "",
}

// wantRender is the display form every object type printed before it
// rendered into a byte slice, spelled with strconv.Quote and fmt.
func wantRender(o Object) string {
	var parts []string
	switch o := o.(type) {
	case *classifierObject:
		for i, l := range o.inst.Classifier.Labels() {
			parts = append(parts, fmt.Sprintf("(%s, %d)", l, o.counts[i]))
		}
		return o.inst.Name + " [" + strings.Join(parts, ", ") + "]"
	case *clusterObject:
		for _, g := range o.sortedGroups() {
			parts = append(parts, fmt.Sprintf("[A%d %s ×%d]", g.rep, strconv.Quote(g.repPreview), len(g.members)))
		}
		return o.inst.Name + " {" + strings.Join(parts, " ") + "}"
	case *snippetObject:
		for _, e := range o.entries {
			p := strconv.Quote(e.Snippet)
			if e.Title != "" {
				p = strconv.Quote(e.Title) + ": " + p
			}
			parts = append(parts, p)
		}
		return o.inst.Name + " [" + strings.Join(parts, ", ") + "]"
	}
	panic("unknown object type")
}

// checkPlainBits fails unless every plain bit o holds is what isPlain says
// of the strings it covers.
func checkPlainBits(t *testing.T, o Object) {
	t.Helper()
	switch o := o.(type) {
	case *clusterObject:
		for _, g := range o.groups {
			if g.plain != isPlain(g.repPreview) {
				t.Errorf("group of %d: plain = %v for preview %q", g.min, g.plain, g.repPreview)
			}
		}
	case *snippetObject:
		for _, e := range o.entries {
			if e.plain != (isPlain(e.Title) && isPlain(e.Snippet)) {
				t.Errorf("entry %d: plain = %v for %q, %q", e.id, e.plain, e.Title, e.Snippet)
			}
		}
	}
}

// TestAppendRenderMatchesRender: every object type, fresh, shared, merged,
// combined, curated (down to a cluster group's "(annotation N)"
// placeholder) and decoded after an Encode round trip, renders the same
// bytes through AppendRender, through Render and through the reference
// format, with titles, snippets and previews that need escaping; and its
// plain bits agree with the strings they cover.
func TestAppendRenderMatchesRender(t *testing.T) {
	cls, clu, snp := classifierInstance(t, "C"), clusterInstance(t, "S"), snippetInstance(t, "T")
	instances := []*Instance{cls, clu, snp}
	// digest of annotation id under in. Cluster ids 10k+1..10k+4 form
	// group k, all alike, so its candidates are its three smallest ids.
	digest := func(in *Instance, id annotation.ID) Digest {
		switch in {
		case cls:
			return Digest{Ann: id, LabelIndex: int(id) % 4}
		case clu:
			k := int(id) / 10
			return Digest{Ann: id, Vector: vec(fmt.Sprintf("term%d", k), 1), Preview: awkward[(k+int(id))%len(awkward)]}
		}
		return Digest{Ann: id, HasDoc: true, Title: awkward[int(id)%len(awkward)], Snippet: awkward[(int(id)+3)%len(awkward)]}
	}
	var all []annotation.ID
	for k := 0; k < len(awkward); k++ {
		for j := 1; j <= 4; j++ {
			all = append(all, annotation.ID(10*k+j))
		}
	}
	build := func(in *Instance, ids []annotation.ID) Object {
		o := in.NewObject()
		for _, id := range ids {
			o.Add(digest(in, id))
		}
		return o
	}
	envelope := func(ids []annotation.ID) *Envelope {
		e := NewEnvelope()
		for _, in := range instances {
			for _, id := range ids {
				e.Add(in, digest(in, id), annotation.Col(0))
			}
		}
		return e
	}
	every := func(ids []annotation.ID, keep func(i int, id annotation.ID) bool) []annotation.ID {
		var out []annotation.ID
		for i, id := range ids {
			if keep(i, id) {
				out = append(out, id)
			}
		}
		return out
	}
	odd := every(all, func(i int, _ annotation.ID) bool { return i%2 == 1 })
	even := every(all, func(i int, _ annotation.ID) bool { return i%2 == 0 })
	// The three candidates of groups 0 and 2, and one member of group 5.
	curated := []annotation.ID{1, 2, 3, 21, 22, 23, 52}

	forms := []struct {
		name  string
		build func(in *Instance) Object
	}{
		{"fresh", func(in *Instance) Object { return build(in, all) }},
		{"shared", func(in *Instance) Object {
			o := build(in, all)
			o.share()
			o.Render()
			return o
		}},
		{"merged", func(in *Instance) Object { return build(in, odd).MergeFrom(build(in, even), build(in, all[:9])) }},
		{"mergedShared", func(in *Instance) Object {
			o := build(in, odd)
			o.share()
			return o.MergeFrom(build(in, even))
		}},
		{"combined", func(in *Instance) Object {
			e := envelope(odd)
			e.Combine(envelope(even), envelope(all[5:20]))
			return e.Object(in.Name)
		}},
		{"curated", func(in *Instance) Object { return build(in, all).Remove(curated) }},
		{"curatedShared", func(in *Instance) Object {
			o := build(in, all)
			o.share()
			return o.Remove(curated)
		}},
		{"decoded", func(in *Instance) Object {
			e := envelope(all)
			e.Curate(annotation.Col(0)) // keeps everything
			for _, id := range curated {
				e.RemoveAnnotation(id)
			}
			back, err := DecodeEnvelope(encodeEnvelope(e), linked(instances...))
			if err != nil {
				t.Fatal(err)
			}
			return back.Object(in.Name)
		}},
	}
	for _, f := range forms {
		for _, in := range instances {
			t.Run(f.name+"/"+string(in.Type), func(t *testing.T) {
				o := f.build(in)
				want := wantRender(o)
				if got := string(AppendRender(nil, o)); got != want {
					t.Errorf("AppendRender = %s\nwant %s", got, want)
				}
				if got := string(AppendRender([]byte("prefix|"), o)); got != "prefix|"+want {
					t.Errorf("AppendRender after a prefix = %s", got)
				}
				if got := o.Render(); got != want {
					t.Errorf("Render = %s\nwant %s", got, want)
				}
				checkPlainBits(t, o)
			})
		}
	}

	// Literal forms, independent of wantRender: an escaped title and
	// snippet, and the placeholder of a group whose candidates all left.
	s := build(snp, nil)
	s.Add(Digest{Ann: 1, HasDoc: true, Title: `say "hi"`, Snippet: "tab\there"})
	s.Add(Digest{Ann: 2, HasDoc: true, Snippet: "zero\u200bwidth"})
	if got, want := string(AppendRender(nil, s)), `T ["say \"hi\"": "tab\there", "zero\u200bwidth"]`; got != want {
		t.Errorf("snippet renders %s, want %s", got, want)
	}
	c := build(clu, []annotation.ID{1, 2, 3, 4}).Remove([]annotation.ID{1, 2, 3})
	if got, want := string(AppendRender(nil, c)), `S {[A4 "(annotation 4)" ×1]}`; got != want {
		t.Errorf("cluster renders %s, want %s", got, want)
	}
}

// TestWriteQuotedMatchesStrconv pins appendQuoted, and isPlain, to what
// %q prints.
func TestWriteQuotedMatchesStrconv(t *testing.T) {
	for _, s := range []string{
		"", "size seems wrong", "found eating stonewort…", `say "hi"`, `back\slash`,
		"tab\there", "naïve café", "…leading", "bad\xffutf8", "del\x7f", "nul\x00", "日本語 text", "é\u200bzero-width", "\ufffd legit", "tail\xe2\x80",
	} {
		checkQuoted(t, s)
	}
}

// FuzzAppendQuoted compares appendQuoted with strconv.Quote on arbitrary
// strings: invalid UTF-8, runes Quote escapes as \u, and escapes on either
// side of the eight-byte words the fast path reads. isPlain must hold
// exactly when Quote only adds the quotes.
func FuzzAppendQuoted(f *testing.F) {
	for _, s := range []string{
		"", "a preview longer than one word", "1234567\"", "12345678\\x", "abcdefg\xff", "abcdefgh\u200bij",
		"abcdefgh\x7fijklmnop", "日本語 text é…", "tab\there\nand more", "\x1f2345678", "1234567~ 1234567}",
	} {
		f.Add(s)
	}
	f.Fuzz(checkQuoted)
}

func checkQuoted(t *testing.T, s string) {
	want := strconv.Quote(s)
	if got := string(appendQuoted([]byte("x:"), s)); got != "x:"+want {
		t.Errorf("appendQuoted(%q) = %s, want x:%s", s, got, want)
	}
	if plain := isPlain(s); plain != (want == `"`+s+`"`) {
		t.Errorf("isPlain(%q) = %v, Quote gives %s", s, plain, want)
	}
	if got := string(appendPlainOrQuoted(nil, s, isPlain(s))); got != want {
		t.Errorf("appendPlainOrQuoted(%q) = %s, want %s", s, got, want)
	}
}
