package summary

import (
	"cmp"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"insightnotes/internal/annotation"
	"insightnotes/internal/textmining"
)

// The envelope algebra against a map-based reference model. runEnvelopeOps
// reads a stream of bytes as a sequence of operations — Add, Project,
// RemapColumns, Curate, a join's Merge (with a shift), the group Combine of
// several inputs, RemoveAnnotation, RemoveInstance, Clone, View, and a
// scan's projection (a View of one envelope remapped through a ColMap,
// which usually leaves the view with a pending map) — over three envelopes
// under a classifier, a cluster and a snippet instance, applies each to
// the envelope and to its model, and after every step compares the two:
// coverage per id (through EachCover and CoverOf), classifier label per id
// and counts, snippet entries, cluster partition and representatives. The
// model is eager, so every later operation on a view holding a pending map
// is checked against curation done at once. It also checks the sorted
// lists' invariants (object names too ascend strictly, and no object is
// empty), that a pending map is held only by a shared envelope and never
// hides a dropped annotation, that an envelope equals its Clone, that no
// envelope a View was taken of, on either side, has changed since, and
// that each envelope survives its checkpoint encoding.

// TestEnvelopeOpsMatchModel runs the driver over seeded random streams.
func TestEnvelopeOpsMatchModel(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		data := make([]byte, 400)
		rand.New(rand.NewSource(seed)).Read(data)
		t.Run(fmt.Sprint(seed), func(t *testing.T) { runEnvelopeOps(t, data) })
	}
}

// FuzzEnvelopeOps runs the same driver over fuzzed streams.
func FuzzEnvelopeOps(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		data := make([]byte, 200)
		rand.New(rand.NewSource(seed)).Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) { runEnvelopeOps(t, data) })
}

// opStream hands out the driver's choices, then zeros once data runs out;
// the driver stops there, or after 300 steps.
type opStream struct{ data []byte }

func (s *opStream) intn(n int) int {
	if len(s.data) == 0 {
		return 0
	}
	b := s.data[0]
	s.data = s.data[1:]
	return int(b) % n
}

const modelIDs = 24 // annotation ids 1..modelIDs, so inputs overlap

func runEnvelopeOps(t testing.TB, data []byte) {
	src := &opStream{data: data}
	cls := classifierInstance(t, "C")
	clu := clusterInstance(t, "S")
	clu.MergeBySimilarity = src.intn(2) == 1
	snp := snippetInstance(t, "T")
	instances := []*Instance{cls, clu, snp}

	type slot struct {
		env *Envelope
		m   *modelEnv
	}
	var slots [3]slot
	for i := range slots {
		slots[i] = slot{NewEnvelope(), newModelEnv(clu)}
	}
	type held struct {
		env  *Envelope
		desc string
	}
	var views []held
	for step := 0; len(src.data) > 0 && step < 300; step++ {
		s := &slots[src.intn(len(slots))]
		var op string
		switch src.intn(13) {
		case 0, 1, 2:
			id := annotation.ID(1 + src.intn(modelIDs))
			cols := annotation.ColSet(1 + src.intn(15))
			ins := instances
			if k := src.intn(4); k < 3 {
				ins = instances[k : k+1]
			}
			op = fmt.Sprintf("Add(%d, %v, %d instance(s))", id, cols, len(ins))
			for _, in := range ins {
				d := modelDigest(in, id)
				s.env.Add(in, d, cols)
				s.m.add(in, d, cols)
			}
		case 3:
			keep := rand.New(rand.NewSource(int64(src.intn(256)))).Perm(6)[:1+src.intn(4)]
			op = fmt.Sprintf("Project(%v)", keep)
			s.env.Project(keep)
			mapping := make([]annotation.ColSet, 6)
			for out, in := range keep {
				mapping[in] |= annotation.Col(out)
			}
			s.m.remap(mapping)
		case 4:
			mapping := make([]annotation.ColSet, 1+src.intn(7))
			for i := range mapping {
				mapping[i] = annotation.ColSet(src.intn(16))
			}
			op = fmt.Sprintf("RemapColumns(%v)", mapping)
			s.env.RemapColumns(NewColMap(mapping))
			s.m.remap(mapping)
		case 5:
			o := &slots[src.intn(len(slots))]
			shift := src.intn(4)
			op = fmt.Sprintf("Merge(shift %d)", shift)
			om := o.m.clone()
			s.env.Merge(o.env.View(), shift)
			s.m.merge(om, shift)
		case 6:
			var envs []*Envelope
			var ms []*modelEnv
			for k := 1 + src.intn(3); k > 0; k-- {
				o := &slots[src.intn(len(slots))]
				envs = append(envs, o.env.View())
				ms = append(ms, o.m.clone())
			}
			op = fmt.Sprintf("Combine(%d inputs)", len(envs))
			s.env.Combine(envs...)
			for _, om := range ms {
				s.m.merge(om, 0)
			}
		case 7:
			id := annotation.ID(1 + src.intn(modelIDs))
			op = fmt.Sprintf("RemoveAnnotation(%d)", id)
			s.env.RemoveAnnotation(id)
			s.m.remove([]annotation.ID{id})
		case 8:
			in := instances[src.intn(len(instances))]
			op = "RemoveInstance(" + in.Name + ")"
			s.env.RemoveInstance(in.Name)
			s.m.removeInstance(in.Type)
		case 9:
			o := &slots[src.intn(len(slots))]
			op = "Clone"
			s.env, s.m = o.env.Clone(), o.m.clone()
		case 10:
			// Hold one side of a View and keep changing the other.
			v := s.env.View()
			op = "View"
			if src.intn(2) == 0 {
				s.env, v = v, s.env
			}
			views = append(views, held{v, describeEnvelope(v)})
			if len(views) > 6 {
				views = views[1:]
			}
		case 11:
			// A scan's projection: o stays the stored envelope, s becomes
			// a view of it remapped through a map that usually drops
			// nothing.
			o := &slots[src.intn(len(slots))]
			mapping := make([]annotation.ColSet, 4+src.intn(4))
			for i := range mapping {
				mapping[i] = annotation.ColSet(1 + src.intn(15))
			}
			if src.intn(3) == 0 {
				mapping[src.intn(len(mapping))] = 0
			}
			op = fmt.Sprintf("View remapped(%v)", mapping)
			v, vm := o.env.View(), o.m.clone()
			v.RemapColumns(NewColMap(mapping))
			vm.remap(mapping)
			s.env, s.m = v, vm
		case 12:
			keep := annotation.ColSet(src.intn(256))
			op = fmt.Sprintf("Curate(%v)", keep)
			s.env.Curate(keep)
			mapping := make([]annotation.ColSet, 8)
			for i := range mapping {
				mapping[i] = keep & annotation.Col(i)
			}
			s.m.remap(mapping)
		}
		for i := range slots {
			if err := slots[i].m.check(slots[i].env); err != nil {
				t.Fatalf("step %d %s: envelope %d: %v\nenvelope: %s", step, op, i, err, describeEnvelope(slots[i].env))
			}
			if err := checkRoundTrip(slots[i].env, instances...); err != nil {
				t.Fatalf("step %d %s: envelope %d round trip: %v\nenvelope: %s", step, op, i, err, describeEnvelope(slots[i].env))
			}
		}
		for i, h := range views {
			if got := describeEnvelope(h.env); got != h.desc {
				t.Fatalf("step %d %s: held view %d changed:\n%s\nwas\n%s", step, op, i, got, h.desc)
			}
		}
	}
}

// modelDigest is annotation id's digest under in: a pure function of the
// id, as summarize-once makes it. Term weights are integers, so every
// centroid sum and cosine is exact whatever the map order.
func modelDigest(in *Instance, id annotation.ID) Digest {
	d := Digest{Ann: id}
	switch in.Type {
	case TypeClassifier:
		d.LabelIndex = int(id*7) % len(in.Classifier.Labels())
	case TypeCluster:
		terms := []string{"alpha", "beta", "gamma", "delta", "eps"}
		d.Vector = textmining.Vector{terms[id%5]: float64(1 + id%2), terms[(id/5)%5]: 1}
		d.Preview = fmt.Sprintf("p%d", id)
	case TypeSnippet:
		if id%3 != 0 {
			d.HasDoc, d.Snippet = true, fmt.Sprintf("snip%d", id)
			if id%2 == 0 {
				d.Title = fmt.Sprintf("doc%d", id)
			}
		}
	}
	return d
}

// modelEnv is the reference: maps, and a cluster written the way the
// engine clustered before its lists were sorted.
type modelEnv struct {
	cover    map[annotation.ID]annotation.ColSet
	labels   map[annotation.ID]int
	snippets map[annotation.ID][2]string // title, snippet
	clu      *modelCluster
}

func newModelEnv(in *Instance) *modelEnv {
	return &modelEnv{
		cover:    map[annotation.ID]annotation.ColSet{},
		labels:   map[annotation.ID]int{},
		snippets: map[annotation.ID][2]string{},
		clu:      &modelCluster{in: in, of: map[annotation.ID]*modelGroup{}},
	}
}

func (m *modelEnv) clone() *modelEnv {
	return &modelEnv{cover: maps.Clone(m.cover), labels: maps.Clone(m.labels), snippets: maps.Clone(m.snippets), clu: m.clu.clone()}
}

func (m *modelEnv) member(id annotation.ID) bool {
	_, l := m.labels[id]
	_, s := m.snippets[id]
	_, c := m.clu.of[id]
	return l || s || c
}

func (m *modelEnv) add(in *Instance, d Digest, cols annotation.ColSet) {
	switch in.Type {
	case TypeClassifier:
		if _, ok := m.labels[d.Ann]; !ok {
			m.labels[d.Ann] = d.LabelIndex
		}
	case TypeSnippet:
		if _, ok := m.snippets[d.Ann]; !ok && d.HasDoc {
			m.snippets[d.Ann] = [2]string{d.Title, d.Snippet}
		}
	case TypeCluster:
		m.clu.add(d)
	}
	if m.member(d.Ann) {
		m.cover[d.Ann] |= cols
	}
}

func (m *modelEnv) remap(mapping []annotation.ColSet) {
	var dropped []annotation.ID
	for id, c := range m.cover {
		var out annotation.ColSet
		for i := 0; i < 64 && i < len(mapping); i++ {
			if c.Has(i) {
				out |= mapping[i]
			}
		}
		if out == 0 {
			delete(m.cover, id)
			dropped = append(dropped, id)
		} else {
			m.cover[id] = out
		}
	}
	m.remove(dropped)
}

func (m *modelEnv) remove(ids []annotation.ID) {
	for _, id := range ids {
		delete(m.cover, id)
		delete(m.labels, id)
		delete(m.snippets, id)
	}
	m.clu.remove(ids)
}

func (m *modelEnv) removeInstance(t TypeName) {
	switch t {
	case TypeClassifier:
		clear(m.labels)
	case TypeSnippet:
		clear(m.snippets)
	case TypeCluster:
		m.clu = &modelCluster{in: m.clu.in, of: map[annotation.ID]*modelGroup{}}
	}
	for id := range m.cover {
		if !m.member(id) {
			delete(m.cover, id)
		}
	}
}

// merge folds o into m, o's coverage shifted by shift.
func (m *modelEnv) merge(o *modelEnv, shift int) {
	for id, c := range o.cover {
		m.cover[id] |= c.Shift(shift)
	}
	for id, l := range o.labels {
		if _, ok := m.labels[id]; !ok {
			m.labels[id] = l
		}
	}
	for id, s := range o.snippets {
		if _, ok := m.snippets[id]; !ok {
			m.snippets[id] = s
		}
	}
	if len(m.clu.of) == 0 {
		m.clu = o.clu.clone() // an object only one side holds is adopted
	} else {
		m.clu.merge(o.clu)
	}
}

type modelGroup struct {
	members  map[annotation.ID]bool
	cands    []repCandidate
	centroid textmining.Vector
	rep      annotation.ID
	preview  string
}

func (g *modelGroup) min() annotation.ID { return g.ids()[0] }

// ids returns the members, sorted.
func (g *modelGroup) ids() []annotation.ID {
	out := make([]annotation.ID, 0, len(g.members))
	for id := range g.members {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

func (g *modelGroup) elect() {
	for _, c := range g.cands {
		if g.members[c.id] {
			g.rep, g.preview = c.id, c.preview
			return
		}
	}
	g.rep = g.min()
	g.preview = fmt.Sprintf("(annotation %d)", g.rep)
}

func (g *modelGroup) pruneCands() {
	g.cands = slices.DeleteFunc(g.cands, func(c repCandidate) bool { return !g.members[c.id] })
}

func (g *modelGroup) topCands() {
	slices.SortStableFunc(g.cands, func(a, b repCandidate) int { return cmp.Or(cmp.Compare(b.sim, a.sim), cmp.Compare(a.id, b.id)) })
	var out []repCandidate
	for _, c := range g.cands {
		if !slices.ContainsFunc(out, func(o repCandidate) bool { return o.id == c.id }) && len(out) < repCandidates {
			out = append(out, c)
		}
	}
	g.cands = out
}

type modelCluster struct {
	in     *Instance
	groups []*modelGroup
	of     map[annotation.ID]*modelGroup
}

func (c *modelCluster) clone() *modelCluster {
	cp := &modelCluster{in: c.in, of: map[annotation.ID]*modelGroup{}}
	for _, g := range c.groups {
		ng := &modelGroup{members: maps.Clone(g.members), cands: slices.Clone(g.cands),
			centroid: g.centroid.Clone(), rep: g.rep, preview: g.preview}
		cp.groups = append(cp.groups, ng)
		for id := range ng.members {
			cp.of[id] = ng
		}
	}
	return cp
}

func (c *modelCluster) sorted() []*modelGroup {
	gs := slices.Clone(c.groups)
	slices.SortFunc(gs, func(a, b *modelGroup) int { return cmp.Compare(a.min(), b.min()) })
	return gs
}

// nearest returns the group whose centroid is most similar to v, at least
// the instance threshold, or nil.
func (c *modelCluster) nearest(v textmining.Vector) *modelGroup {
	var best *modelGroup
	bestSim := 0.0
	for _, g := range c.sorted() {
		sim := textmining.Cosine(g.centroid, v)
		if sim >= c.in.SimThreshold && sim > bestSim+1e-12 {
			best, bestSim = g, sim
		}
	}
	return best
}

func (c *modelCluster) add(d Digest) {
	if c.of[d.Ann] != nil {
		return
	}
	g := c.nearest(d.Vector)
	if g == nil {
		g = &modelGroup{members: map[annotation.ID]bool{}, centroid: textmining.NewVector()}
		c.groups = append(c.groups, g)
	}
	g.centroid.Add(d.Vector)
	g.centroid.Prune(c.in.CentroidTerms * 2)
	sim := textmining.Cosine(g.centroid, d.Vector)
	g.members[d.Ann] = true
	c.of[d.Ann] = g
	g.cands = append(g.cands, repCandidate{id: d.Ann, preview: d.Preview, sim: sim})
	g.topCands()
	g.elect()
}

func (c *modelCluster) remove(ids []annotation.ID) {
	touched := map[*modelGroup]bool{}
	for _, id := range ids {
		if g := c.of[id]; g != nil {
			delete(g.members, id)
			delete(c.of, id)
			touched[g] = true
		}
	}
	for g := range touched {
		if len(g.members) > 0 {
			g.pruneCands()
			g.elect()
		}
	}
	c.groups = slices.DeleteFunc(c.groups, func(g *modelGroup) bool { return len(g.members) == 0 })
}

func (c *modelCluster) merge(o *modelCluster) {
	for _, og := range o.sorted() {
		var overlap []*modelGroup
		for id := range og.members {
			if g := c.of[id]; g != nil && !slices.Contains(overlap, g) {
				overlap = append(overlap, g)
			}
		}
		var target *modelGroup
		switch {
		case len(overlap) > 0:
			target = c.fuse(overlap)
		case c.in.MergeBySimilarity:
			target = c.nearest(og.centroid)
		}
		if target == nil {
			ng := &modelGroup{members: maps.Clone(og.members), cands: slices.Clone(og.cands),
				centroid: og.centroid.Clone(), rep: og.rep, preview: og.preview}
			c.groups = append(c.groups, ng)
			for id := range ng.members {
				c.of[id] = ng
			}
			continue
		}
		added := false
		for id := range og.members {
			if c.of[id] == nil {
				target.members[id] = true
				c.of[id] = target
				added = true
			}
		}
		if added {
			target.centroid.Add(og.centroid)
		}
		target.cands = append(target.cands, og.cands...)
		target.topCands()
		target.pruneCands()
		target.elect()
	}
}

// fuse combines local groups bridged by an incoming one.
func (c *modelCluster) fuse(groups []*modelGroup) *modelGroup {
	slices.SortFunc(groups, func(a, b *modelGroup) int { return cmp.Compare(a.min(), b.min()) })
	target := groups[0]
	for _, g := range groups[1:] {
		for id := range g.members {
			target.members[id] = true
			c.of[id] = target
		}
		target.centroid.Add(g.centroid)
		target.cands = append(target.cands, g.cands...)
	}
	if len(groups) > 1 {
		target.topCands()
		c.groups = slices.DeleteFunc(c.groups, func(g *modelGroup) bool { return g != target && slices.Contains(groups, g) })
		target.elect()
	}
	return target
}

// check compares env with the model and checks the sorted lists'
// invariants.
func (m *modelEnv) check(env *Envelope) error {
	if !slices.IsSortedFunc(env.cover, func(a, b coverEntry) int { return cmp.Compare(a.id, b.id) }) ||
		len(slices.CompactFunc(slices.Clone(env.cover), func(a, b coverEntry) bool { return a.id == b.id })) != len(env.cover) {
		return fmt.Errorf("coverage not strictly sorted: %v", env.cover)
	}
	if cm := env.cmap; cm != nil {
		if !env.shared.isShared() {
			return fmt.Errorf("a private envelope holds a pending map")
		}
		for _, c := range env.cover {
			if c.cols&cm.live == 0 {
				return fmt.Errorf("pending map hides dropped annotation %d", c.id)
			}
		}
	}
	got := map[annotation.ID]annotation.ColSet{}
	env.EachCover(func(id annotation.ID, cols annotation.ColSet) { got[id] = cols })
	if !maps.Equal(got, m.cover) {
		return fmt.Errorf("coverage %v, model %v", got, m.cover)
	}
	for id := annotation.ID(0); id <= modelIDs; id++ {
		if got := env.CoverOf(id); got != m.cover[id] {
			return fmt.Errorf("CoverOf(%d) = %v, model %v", id, got, m.cover[id])
		}
	}
	if !env.Equal(env.Clone()) {
		return fmt.Errorf("envelope differs from its clone %s", describeEnvelope(env.Clone()))
	}
	for i, o := range env.objs {
		if i > 0 && o.name <= env.objs[i-1].name {
			return fmt.Errorf("object names not strictly ascending: %v", env.InstanceNames())
		}
		if o.obj.Len() == 0 {
			return fmt.Errorf("empty %s object kept", o.name)
		}
	}
	if err := m.checkClassifier(env.Object("C")); err != nil {
		return err
	}
	if err := m.checkSnippet(env.Object("T")); err != nil {
		return err
	}
	return m.checkCluster(env.Object("S"))
}

func strictlySorted(ids []annotation.ID) bool {
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			return false
		}
	}
	return true
}

func (m *modelEnv) checkClassifier(obj Object) error {
	if obj == nil {
		if len(m.labels) > 0 {
			return fmt.Errorf("classifier object missing, model %v", m.labels)
		}
		return nil
	}
	c := obj.(*classifierObject)
	got := map[annotation.ID]int{}
	counts := make([]int, len(c.counts))
	for _, e := range c.members {
		got[e.id] = e.label
		counts[e.label]++
	}
	if !strictlySorted(c.Members()) || !maps.Equal(got, m.labels) || !slices.Equal(counts, c.counts) {
		return fmt.Errorf("classifier members %v counts %v, model %v", c.members, c.counts, m.labels)
	}
	return nil
}

func (m *modelEnv) checkSnippet(obj Object) error {
	if obj == nil {
		if len(m.snippets) > 0 {
			return fmt.Errorf("snippet object missing, model %v", m.snippets)
		}
		return nil
	}
	s := obj.(*snippetObject)
	got := map[annotation.ID][2]string{}
	for _, e := range s.entries {
		got[e.id] = [2]string{e.Title, e.Snippet}
	}
	if !strictlySorted(s.Members()) || !maps.Equal(got, m.snippets) {
		return fmt.Errorf("snippet entries %v, model %v", s.entries, m.snippets)
	}
	return nil
}

func (m *modelEnv) checkCluster(obj Object) error {
	if obj == nil {
		if len(m.clu.of) > 0 {
			return fmt.Errorf("cluster object missing, model has %d members", len(m.clu.of))
		}
		return nil
	}
	c := obj.(*clusterObject)
	gs, want := c.sortedGroups(), m.clu.sorted()
	if len(gs) != len(want) || c.Len() != len(m.clu.of) {
		return fmt.Errorf("cluster %s, model %s", describeGroups(c), describeModel(m.clu))
	}
	for i, g := range gs {
		ids := want[i].ids()
		if !slices.Equal(g.members, ids) || g.rep != want[i].rep || g.repPreview != want[i].preview ||
			g.min != g.members[0] {
			return fmt.Errorf("cluster %s, model %s", describeGroups(c), describeModel(m.clu))
		}
		for _, id := range g.members {
			if groupOf(c, id) != g {
				return fmt.Errorf("member %d in another group too", id)
			}
		}
	}
	return nil
}

func describeGroups(c *clusterObject) string {
	var b strings.Builder
	for _, g := range c.sortedGroups() {
		fmt.Fprintf(&b, "[rep %d %q %v]", g.rep, g.repPreview, g.members)
	}
	return b.String()
}

func describeModel(c *modelCluster) string {
	var b strings.Builder
	for _, g := range c.sorted() {
		fmt.Fprintf(&b, "[rep %d %q %v]", g.rep, g.preview, g.ids())
	}
	return b.String()
}

// describeEnvelope renders everything a reader of env can see, and the
// lists behind it.
func describeEnvelope(env *Envelope) string {
	var b strings.Builder
	fmt.Fprintf(&b, "cover %v\n", env.resolvedCover())
	for _, o := range env.objs {
		obj := o.obj
		fmt.Fprintf(&b, "%s %v %v\n", obj.Render(), obj.Members(), obj.Elements())
		if c, ok := obj.(*clusterObject); ok {
			b.WriteString(describeGroups(c))
			b.WriteByte('\n')
		}
	}
	return b.String()
}
