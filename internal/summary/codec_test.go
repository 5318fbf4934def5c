package summary

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"insightnotes/internal/annotation"
	"insightnotes/internal/codec"
)

func encodeEnvelope(env *Envelope) []byte {
	w := codec.NewWriter(nil)
	env.Encode(w)
	return w.Bytes()
}

// linked resolves the names of instances, and no other.
func linked(instances ...*Instance) func(string) *Instance {
	return func(name string) *Instance {
		for _, in := range instances {
			if in.Name == name {
				return in
			}
		}
		return nil
	}
}

// checkRoundTrip decodes env's encoding: the copy must be Equal to env,
// render alike and encode to the same bytes. An envelope without coverage
// is never stored, so it is not checked.
func checkRoundTrip(env *Envelope, instances ...*Instance) error {
	if env.IsEmpty() {
		return nil
	}
	body := encodeEnvelope(env)
	back, err := DecodeEnvelope(body, linked(instances...))
	switch {
	case err != nil:
		return fmt.Errorf("decode: %v", err)
	case !back.Equal(env):
		return fmt.Errorf("decoded %s", describeEnvelope(back))
	case back.Render() != env.Render():
		return fmt.Errorf("decoded renders %q, want %q", back.Render(), env.Render())
	case !bytes.Equal(encodeEnvelope(back), body):
		return fmt.Errorf("decoded envelope encodes to other bytes")
	}
	return nil
}

// A decoded envelope carries everything later maintenance reads: adding
// and removing the same annotations on the original and on the copy keeps
// them equal, representatives and previews included.
func TestDecodedEnvelopeContinues(t *testing.T) {
	cls, clu, snp := classifierInstance(t, "C"), clusterInstance(t, "S"), snippetInstance(t, "T")
	add := func(env *Envelope, i int) {
		text := behaviorText(i)
		if i%3 == 0 {
			text = diseaseText(i)
		}
		a := ann(annotation.ID(i), text)
		addAnn(env, cls, a, 1)
		addAnn(env, clu, a, annotation.ColSet(1+i%3))
		if i%4 == 0 {
			addAnn(env, snp, docAnn(annotation.ID(i), "T", wikiDoc), 1)
		}
	}
	live := NewEnvelope()
	for i := 1; i <= 12; i++ {
		add(live, i)
	}
	back, err := DecodeEnvelope(encodeEnvelope(live), linked(cls, clu, snp))
	if err != nil {
		t.Fatal(err)
	}
	for _, env := range []*Envelope{live, back} {
		for i := 13; i <= 20; i++ {
			add(env, i)
		}
		env.RemoveAnnotation(2)
	}
	if !back.Equal(live) || back.Render() != live.Render() {
		t.Fatalf("after further maintenance the decoded envelope is\n%s\nwant\n%s", back.Render(), live.Render())
	}
	if err := checkRoundTrip(live, cls, clu, snp); err != nil {
		t.Fatal(err)
	}
}

// envBody writes an envelope body by hand: the coverage ids, each
// covering column 0, then the objects objs write.
func envBody(cover []annotation.ID, objs ...func(w *codec.Writer)) []byte {
	w := codec.NewWriter(nil)
	w.Uvarint(uint64(len(cover)))
	for _, id := range cover {
		w.Uvarint(uint64(id))
		w.Uvarint(1)
	}
	w.Uvarint(uint64(len(objs)))
	for _, o := range objs {
		o(w)
	}
	return w.Bytes()
}

// classifierBody writes classifier object name with (id, label) members.
func classifierBody(name string, members ...[2]uint64) func(*codec.Writer) {
	return func(w *codec.Writer) {
		w.Str(name)
		w.Uvarint(uint64(len(members)))
		for _, m := range members {
			w.Uvarint(m[0])
			w.Uvarint(m[1])
		}
	}
}

// clusterBody writes cluster object name with the given groups, each
// without candidates and with centroid terms.
func clusterBody(name string, terms []string, groups ...[]annotation.ID) func(*codec.Writer) {
	return func(w *codec.Writer) {
		w.Str(name)
		w.Uvarint(uint64(len(groups)))
		for _, g := range groups {
			w.Uvarint(uint64(len(g)))
			for _, id := range g {
				w.Uvarint(uint64(id))
			}
			w.Uvarint(0)
			w.Uvarint(uint64(len(terms)))
			for _, t := range terms {
				w.Str(t)
				w.Float64(1)
			}
		}
	}
}

// snippetBody writes snippet object name with entries for ids.
func snippetBody(name string, ids ...annotation.ID) func(*codec.Writer) {
	return func(w *codec.Writer) {
		w.Str(name)
		w.Uvarint(uint64(len(ids)))
		for _, id := range ids {
			w.Uvarint(uint64(id))
			w.Str("title")
			w.Str("snippet")
		}
	}
}

// Bodies Encode cannot write are refused with an error naming the fault,
// never a panic and never an envelope.
func TestDecodeEnvelopeRejectsHostileBodies(t *testing.T) {
	cls, clu, snp := classifierInstance(t, "C"), clusterInstance(t, "S"), snippetInstance(t, "T")
	terms := []string{"swan"}
	valid := envBody([]annotation.ID{1, 2}, classifierBody("C", [2]uint64{1, 0}, [2]uint64{2, 3}),
		clusterBody("S", terms, []annotation.ID{1}, []annotation.ID{2}), snippetBody("T", 2))
	if _, err := DecodeEnvelope(valid, linked(cls, clu, snp)); err != nil {
		t.Fatalf("the valid body: %v", err)
	}
	ids := func(ids ...annotation.ID) []annotation.ID { return ids }
	for _, tc := range []struct {
		name, body, want string
	}{
		{"coverage out of order", string(envBody(ids(2, 1), classifierBody("C", [2]uint64{1, 0}, [2]uint64{2, 0}))), "coverage: id 1 after 2"},
		{"coverage id repeated", string(envBody(ids(1, 1), classifierBody("C", [2]uint64{1, 0}))), "coverage: id 1 after 1"},
		{"classifier ids out of order", string(envBody(ids(1, 2), classifierBody("C", [2]uint64{2, 0}, [2]uint64{1, 0}))), "C: id 1 after 2"},
		{"label outside the labels", string(envBody(ids(1), classifierBody("C", [2]uint64{1, 4}))), "label 4 outside the 4 labels"},
		{"huge label", string(envBody(ids(1), classifierBody("C", [2]uint64{1, 1 << 63}))), "outside the 4 labels"},
		{"group ids repeated", string(envBody(ids(1), clusterBody("S", terms, ids(1, 1)))), "S: id 1 after 1"},
		{"member in two groups", string(envBody(ids(1, 2), clusterBody("S", terms, ids(1, 2), ids(2)))), "annotation 2 in two groups"},
		{"empty group", string(envBody(ids(1), clusterBody("S", terms, ids(1), ids()))), "an empty group"},
		{"centroid terms out of order", string(envBody(ids(1), clusterBody("S", []string{"swan", "goose"}, ids(1)))), `centroid term "goose" after "swan"`},
		{"group member outside the coverage", string(envBody(ids(1), clusterBody("S", terms, ids(1, 2)))), "member 2 outside the coverage"},
		{"snippet ids repeated", string(envBody(ids(1), snippetBody("T", 1, 1))), "T: id 1 after 1"},
		{"coverage entry in no object", string(envBody(ids(1, 2), classifierBody("C", [2]uint64{1, 0}))), "annotation 2 is a member of no object"},
		{"empty object", string(envBody(ids(1), classifierBody("C"), snippetBody("T", 1))), "empty C object"},
		{"no objects", string(envBody(nil)), "an envelope without objects"},
		{"unlinked instance", string(envBody(ids(1), classifierBody("X", [2]uint64{1, 0}))), `instance "X" is not linked`},
		{"instances out of order", string(envBody(ids(1), snippetBody("T", 1), classifierBody("C", [2]uint64{1, 0}))), `instance "C" after "T"`},
		{"instance repeated", string(envBody(ids(1), snippetBody("T", 1), snippetBody("T", 1))), `instance "T" after "T"`},
		{"count beyond the body", "\xff\xff\xff\xff\x0f", "exceeds"},
		{"truncated", string(valid[:len(valid)-1]), "corrupt input"},
		{"trailing byte", string(valid) + "\x00", "trailing byte"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env, err := DecodeEnvelope([]byte(tc.body), linked(cls, clu, snp))
			if err == nil || env != nil {
				t.Fatalf("decoded %v", env)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want it to contain %q", err, tc.want)
			}
		})
	}
}

// TestDecodeErrorNamesTheFirstBadObject: when two objects each hold a
// member outside the coverage, the error names the first in name order,
// on every decode.
func TestDecodeErrorNamesTheFirstBadObject(t *testing.T) {
	cls, snp := classifierInstance(t, "C"), snippetInstance(t, "T")
	body := envBody([]annotation.ID{1}, classifierBody("C", [2]uint64{2, 0}), snippetBody("T", 3))
	for i := 0; i < 100; i++ {
		_, err := DecodeEnvelope(body, linked(cls, snp))
		if err == nil || !strings.Contains(err.Error(), "C member 2 outside the coverage") {
			t.Fatalf("decode %d: err = %v, want it to name C member 2", i, err)
		}
	}
}

// FuzzDecodeEnvelope feeds arbitrary bodies to DecodeEnvelope under a
// classifier, a cluster and a snippet instance: none may panic, and a body
// it accepts re-encodes to bytes that decode to an equal envelope with the
// same encoding.
func FuzzDecodeEnvelope(f *testing.F) {
	cls, clu, snp := classifierInstance(f, "C"), clusterInstance(f, "S"), snippetInstance(f, "T")
	env := NewEnvelope()
	for i := 1; i <= 12; i++ {
		a := ann(annotation.ID(i), behaviorText(i))
		if i%3 == 0 {
			a = ann(annotation.ID(i), diseaseText(i))
		}
		addAnn(env, cls, a, 1)
		addAnn(env, clu, a, annotation.ColSet(1+i%3))
		if i%4 == 0 {
			addAnn(env, snp, docAnn(annotation.ID(i), "T", wikiDoc), 2)
		}
	}
	f.Add(encodeEnvelope(env))
	f.Add(envBody([]annotation.ID{1, 2}, classifierBody("C", [2]uint64{1, 0}, [2]uint64{2, 3}),
		clusterBody("S", []string{"swan"}, []annotation.ID{1}, []annotation.ID{2}), snippetBody("T", 2)))
	f.Fuzz(func(t *testing.T, body []byte) {
		env, err := DecodeEnvelope(body, linked(cls, clu, snp))
		if err != nil {
			return
		}
		again := encodeEnvelope(env)
		back, err := DecodeEnvelope(again, linked(cls, clu, snp))
		if err != nil {
			t.Fatalf("re-encoded envelope does not decode: %v", err)
		}
		if !back.Equal(env) || !bytes.Equal(encodeEnvelope(back), again) {
			t.Fatalf("decode → encode → decode changed the envelope:\n%s\n%s", describeEnvelope(env), describeEnvelope(back))
		}
	})
}
