package summary

import (
	"fmt"
	"slices"

	"insightnotes/internal/annotation"
	"insightnotes/internal/codec"
	"insightnotes/internal/textmining"
)

// The binary forms of an instance (the body of a create_instance record)
// and of an envelope (one entry of a checkpoint's summary record), on
// internal/codec. An envelope is written as the state that cannot be
// derived:
//
//	coverage    (id, columns) per entry, in id order
//	objects     per object, in instance-name order, the name, then
//	  Classifier  (id, label index) per member, in id order
//	  Cluster     per group, in canonical order: its members in id order,
//	              its candidates (id, preview, similarity) and its
//	              centroid's (term, weight) in term order
//	  Snippet     (id, title, snippet) per entry, in id order
//
// Decoding recomputes the rest: classifier counts, each cluster group's
// minimum and its elected representative.

// Encode appends the instance's configuration, a classifier's trained
// model included, to w.
func (in *Instance) Encode(w *codec.Writer) {
	w.Str(in.Name)
	w.Str(string(in.Type))
	w.Bool(in.Props.AnnotationInvariant)
	w.Bool(in.Props.DataInvariant)
	switch in.Type {
	case TypeClassifier:
		in.Classifier.Encode(w)
	case TypeCluster:
		w.Float64(in.SimThreshold)
		w.Varint(int64(in.CentroidTerms))
		w.Varint(int64(in.PreviewLen))
		w.Bool(in.MergeBySimilarity)
	case TypeSnippet:
		w.Varint(int64(in.SnippetSentences))
	}
}

// DecodeInstance reads an instance written by Encode, recording a failure
// on r and returning nil for one the constructors would refuse.
func DecodeInstance(r *codec.Reader) *Instance {
	in := &Instance{Name: r.Str(), Type: TypeName(r.Str())}
	in.Props = Properties{AnnotationInvariant: r.Bool(), DataInvariant: r.Bool()}
	var err error
	switch in.Type {
	case TypeClassifier:
		in.Classifier = textmining.DecodeNaiveBayes(r)
		_, err = NewClassifierInstance(in.Name, in.Classifier)
	case TypeCluster:
		in.SimThreshold, in.CentroidTerms, in.PreviewLen, in.MergeBySimilarity = r.Float64(), r.Int(), r.Int(), r.Bool()
		_, err = NewClusterInstance(in.Name, in.SimThreshold)
	case TypeSnippet:
		in.SnippetSentences = r.Int()
		_, err = NewSnippetInstance(in.Name, in.SnippetSentences)
	default:
		_, err = ParseTypeName(string(in.Type))
	}
	if r.Err() == nil && err != nil {
		r.Fail(err)
	}
	if r.Err() != nil {
		return nil
	}
	return in
}

// Encode appends the envelope to w, its coverage through the pending map.
func (e *Envelope) Encode(w *codec.Writer) {
	w.Uvarint(uint64(len(e.cover)))
	for _, c := range e.cover {
		w.Uvarint(uint64(c.id))
		w.Uvarint(uint64(e.cmap.apply(c.cols)))
	}
	w.Uvarint(uint64(len(e.objs)))
	for _, x := range e.objs {
		w.Str(x.name)
		switch o := x.obj.(type) {
		case *classifierObject:
			w.Uvarint(uint64(len(o.members)))
			for _, m := range o.members {
				w.Uvarint(uint64(m.id))
				w.Uvarint(uint64(m.label))
			}
		case *clusterObject:
			w.Uvarint(uint64(len(o.groups)))
			for _, g := range o.sortedGroups() {
				w.Uvarint(uint64(len(g.members)))
				for _, id := range g.members {
					w.Uvarint(uint64(id))
				}
				w.Uvarint(uint64(len(g.candidates)))
				for _, c := range g.candidates {
					w.Uvarint(uint64(c.id))
					w.Str(c.preview)
					w.Float64(c.sim)
				}
				w.Uvarint(uint64(len(g.centroid)))
				for _, t := range g.centroid.SortedTerms() {
					w.Str(t)
					w.Float64(g.centroid[t])
				}
			}
		case *snippetObject:
			w.Uvarint(uint64(len(o.entries)))
			for _, s := range o.entries {
				w.Uvarint(uint64(s.id))
				w.Str(s.Title)
				w.Str(s.Snippet)
			}
		}
	}
}

// DecodeEnvelope decodes an envelope written by Encode into a private one.
// instance resolves an object's instance name; it returns nil for an
// instance the tuple's table is not linked to. A body that Encode could
// not have written is an error, never a panic: ids out of order or
// repeated, a label outside its classifier's labels, an annotation in two
// groups, a member outside the coverage or a coverage entry outside every
// object, an empty object or envelope, an unlinked instance.
func DecodeEnvelope(body []byte, instance func(name string) *Instance) (*Envelope, error) {
	r := codec.NewReader(body)
	e := &Envelope{cover: make([]coverEntry, r.Count(2))}
	for i := range e.cover {
		e.cover[i] = coverEntry{annotation.ID(r.Uvarint()), annotation.ColSet(r.Uvarint())}
	}
	ascending(r, e.cover, coverID, "coverage")
	n := r.Count(2)
	e.objs = make([]namedObject, 0, n)
	prev := ""
	for k := 0; k < n && r.Err() == nil; k++ {
		name := r.Str()
		in := instance(name)
		switch {
		case k > 0 && name <= prev:
			failf(r, "instance %q after %q", name, prev)
		case in == nil:
			failf(r, "instance %q is not linked to the table", name)
		default:
			obj := decodeObject(r, in)
			if r.Err() == nil && obj.Len() == 0 {
				failf(r, "empty %s object", name)
			}
			e.objs = append(e.objs, namedObject{name, obj})
		}
		prev = name
	}
	if r.Err() == nil {
		checkCoverage(r, e)
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return e, nil
}

// decodeObject reads one object of instance in.
func decodeObject(r *codec.Reader, in *Instance) Object {
	switch in.Type {
	case TypeClassifier:
		c := newClassifierObject(in)
		c.members = make([]labelEntry, r.Count(2))
		for i := range c.members {
			id, l := annotation.ID(r.Uvarint()), r.Uvarint()
			if l >= uint64(len(c.counts)) {
				failf(r, "label %d outside the %d labels of %q", l, len(c.counts), in.Name)
				break
			}
			c.members[i] = labelEntry{id, int(l)}
			c.counts[l]++
		}
		ascending(r, c.members, labelID, in.Name)
		return c
	case TypeCluster:
		c := newClusterObject(in)
		c.groups = make([]*clusterGroup, r.Count(3))
		for i := range c.groups {
			g := &clusterGroup{members: make([]annotation.ID, r.Count(1))}
			for j := range g.members {
				g.members[j] = annotation.ID(r.Uvarint())
			}
			ascending(r, g.members, idOf, in.Name)
			if len(g.members) == 0 {
				failf(r, "an empty group of %q", in.Name)
			}
			g.candidates = make([]repCandidate, r.Count(3))
			for j := range g.candidates {
				g.candidates[j] = repCandidate{annotation.ID(r.Uvarint()), r.Str(), r.Float64()}
			}
			n := r.Count(2)
			g.centroid = make(textmining.Vector, n)
			term := ""
			for k := 0; k < n && r.Err() == nil; k++ {
				t := r.Str()
				if k > 0 && t <= term {
					failf(r, "centroid term %q after %q", t, term)
				}
				g.centroid[t], term = r.Float64(), t
			}
			c.groups[i] = g
		}
		if r.Err() == nil { // checkCoverage fails an id in two groups
			for _, g := range c.groups {
				g.min = g.members[0]
				g.candidates = topCandidates(g.candidates)
				elect(g)
			}
		}
		return c
	}
	s := newSnippetObject(in)
	s.entries = make([]snippetEntry, r.Count(3))
	for i := range s.entries {
		s.entries[i] = newSnippetEntry(annotation.ID(r.Uvarint()), r.Str(), r.Str())
	}
	ascending(r, s.entries, snippetID, in.Name)
	return s
}

// ascending fails r unless the ids of list ascend strictly.
func ascending[E any](r *codec.Reader, list []E, key func(E) annotation.ID, what string) {
	for i := 1; i < len(list) && r.Err() == nil; i++ {
		if a, b := key(list[i-1]), key(list[i]); b <= a {
			failf(r, "%s: id %d after %d", what, b, a)
		}
	}
}

// checkCoverage fails r unless e holds an object, no cluster object holds
// an id in two groups (its Len then exceeds its merged members) and e's
// coverage lists exactly its objects' members.
func checkCoverage(r *codec.Reader, e *Envelope) {
	if len(e.objs) == 0 {
		failf(r, "an envelope without objects")
		return
	}
	hit := make([]bool, len(e.cover))
	for _, x := range e.objs {
		members := x.obj.Members()
		if c, ok := x.obj.(*clusterObject); ok && len(members) < c.Len() {
			failf(r, "annotation %d in two groups of %q", c.repeatedMember(), x.name)
			return
		}
		for _, id := range members {
			i, ok := search(e.cover, id, coverID)
			if !ok {
				failf(r, "%s member %d outside the coverage", x.name, id)
				return
			}
			hit[i] = true
		}
	}
	if i := slices.Index(hit, false); i >= 0 {
		failf(r, "annotation %d is a member of no object", e.cover[i].id)
	}
}

func failf(r *codec.Reader, format string, args ...any) {
	r.Fail(fmt.Errorf("summary: "+format, args...))
}

// repeatedMember returns an id that two of c's groups hold.
func (c *clusterObject) repeatedMember() annotation.ID {
	var all []annotation.ID
	for _, g := range c.groups {
		all = append(all, g.members...)
	}
	slices.Sort(all)
	for i := 1; i < len(all); i++ {
		if all[i] == all[i-1] {
			return all[i]
		}
	}
	return 0
}
