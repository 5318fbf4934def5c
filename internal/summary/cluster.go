package summary

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"

	"insightnotes/internal/annotation"
	"insightnotes/internal/textmining"
)

// repCandidates is the number of representative candidates retained per
// group so that dropped representatives can be replaced without consulting
// the raw annotations.
const repCandidates = 3

// clusterObject summarizes a tuple's annotations as groups of similar
// content, reporting one elected representative per group — the paper's
// SimCluster-style objects.
//
// The object is deliberately compact (the E1 compression measurements rest
// on it): per member it retains only the annotation id; per group it keeps
// one pruned centroid vector and a short list of representative
// *candidates* (id, display preview, and similarity-to-centroid recorded at
// insertion time). That is enough for every query-time operation:
//
//   - Remove (projection curation) deletes members and re-elects the
//     representative — the next surviving candidate, or deterministically
//     the smallest surviving member id when every candidate dropped (the
//     paper's "A5 replacing the dropped A2" behaviour). The centroid is
//     left as recorded at maintenance time; it only steers maintenance-time
//     assignment and optional similarity-based merging, both tolerant of
//     that approximation.
//   - MergeFrom combines member-overlapping groups transitively (the
//     connected-component join of the two partitions), which is
//     independent of merge order; candidate lists merge by taking the top
//     candidates of the union, which is likewise order-independent. These
//     two facts are what make summary propagation identical across
//     equivalent plans (the Theorem 1&2 property, experiment E3).
type clusterObject struct {
	sharedFlag
	shown  presentation
	inst   *Instance
	groups []*clusterGroup
	// member → its group, the double-count guard and overlap detector.
	memberGroup map[annotation.ID]*clusterGroup
}

// repCandidate is one potential representative retained with its preview.
type repCandidate struct {
	id      annotation.ID
	preview string
	sim     float64
}

// clusterGroup is the unit of copy-on-write in a cluster object: once
// latched shared (by Clone, or by a MergeFrom adopting it) it is immutable,
// and ownGroup replaces it with a private copy before any change. A shared
// group memoises its label and sorted member ids the way a shared object
// memoises its presentation, so every object holding it, an unshared
// accumulator included, reuses them.
type clusterGroup struct {
	members    map[annotation.ID]struct{}
	candidates []repCandidate // sorted by (sim desc, id asc), len ≤ repCandidates
	centroid   textmining.Vector
	rep        annotation.ID
	repPreview string
	// min caches the smallest member id (the canonical group sort key);
	// maintained on every membership change to avoid rescanning the
	// member set during sorting, rendering, and zooming.
	min        annotation.ID
	hasMin     bool
	sharedFlag // after hasMin: it fits in hasMin's padding
	label      atomic.Pointer[string]
	ids        atomic.Pointer[[]annotation.ID]
}

func newClusterGroup() *clusterGroup {
	return &clusterGroup{
		members:  make(map[annotation.ID]struct{}),
		centroid: textmining.NewVector(),
	}
}

func newClusterObject(in *Instance) *clusterObject {
	return &clusterObject{
		inst:        in,
		memberGroup: make(map[annotation.ID]*clusterGroup),
	}
}

// addCandidate inserts c into the sorted candidate list, keeping the top
// repCandidates entries.
func (g *clusterGroup) addCandidate(c repCandidate) {
	g.candidates = append(g.candidates, c)
	sortCandidates(g.candidates)
	g.candidates = dedupCandidates(g.candidates)
	if len(g.candidates) > repCandidates {
		g.candidates = g.candidates[:repCandidates]
	}
}

func sortCandidates(cs []repCandidate) {
	slices.SortFunc(cs, func(a, b repCandidate) int {
		return cmp.Or(cmp.Compare(b.sim, a.sim), cmp.Compare(a.id, b.id))
	})
}

// dedupCandidates keeps the first entry per annotation id. The lists hold
// at most 2×repCandidates entries, so a quadratic scan beats a map.
func dedupCandidates(cs []repCandidate) []repCandidate {
	out := cs[:0]
	for _, c := range cs {
		if !slices.ContainsFunc(out, func(o repCandidate) bool { return o.id == c.id }) {
			out = append(out, c)
		}
	}
	return out
}

// electRep recomputes the representative: the best surviving candidate, or
// the smallest member id (with a placeholder preview) when every candidate
// was curated away. Must be called after any membership change.
func (g *clusterGroup) electRep() {
	for _, c := range g.candidates {
		if _, ok := g.members[c.id]; ok {
			g.rep = c.id
			g.repPreview = c.preview
			return
		}
	}
	g.rep = g.minID()
	g.repPreview = fmt.Sprintf("(annotation %d)", g.rep)
}

// pruneCandidates drops candidates that are no longer members.
func (g *clusterGroup) pruneCandidates() {
	out := g.candidates[:0]
	for _, c := range g.candidates {
		if _, ok := g.members[c.id]; ok {
			out = append(out, c)
		}
	}
	g.candidates = out
}

// addMember inserts id, maintaining the cached minimum.
func (g *clusterGroup) addMember(id annotation.ID) {
	g.members[id] = struct{}{}
	if !g.hasMin || id < g.min {
		g.min, g.hasMin = id, true
	}
}

// removeMember deletes id, recomputing the cached minimum only when the
// minimum itself was removed.
func (g *clusterGroup) removeMember(id annotation.ID) {
	delete(g.members, id)
	if g.hasMin && id == g.min {
		g.recomputeMin()
	}
}

func (g *clusterGroup) recomputeMin() {
	g.hasMin = false
	for id := range g.members {
		if !g.hasMin || id < g.min {
			g.min, g.hasMin = id, true
		}
	}
}

// minID returns the smallest member id, the canonical group sort key.
func (g *clusterGroup) minID() annotation.ID { return g.min }

// Instance implements Object.
func (c *clusterObject) Instance() *Instance { return c.inst }

// Contains implements Object.
func (c *clusterObject) Contains(id annotation.ID) bool {
	_, ok := c.memberGroup[id]
	return ok
}

// Add implements Object: online stream clustering in the style of the
// paper's ref [23] — the annotation joins the most similar existing group
// when its centroid similarity reaches the instance threshold, otherwise it
// founds a new group. The digest's vector updates the group centroid and is
// then discarded; only the member id (and possibly a representative
// candidacy) is retained.
func (c *clusterObject) Add(d Digest) {
	if c.Contains(d.Ann) {
		return
	}
	var best *clusterGroup
	bestSim := 0.0
	for _, g := range c.sortedGroups() {
		sim := textmining.Cosine(g.centroid, d.Vector)
		if sim >= c.inst.SimThreshold && sim > bestSim+1e-12 {
			best, bestSim = g, sim
		}
	}
	if best == nil {
		best = newClusterGroup()
		c.groups = append(c.groups, best)
	} else {
		best = c.ownGroup(best)
	}
	best.centroid.Add(d.Vector)
	best.centroid.Prune(c.inst.CentroidTerms * 2)
	sim := textmining.Cosine(best.centroid, d.Vector)
	best.addMember(d.Ann)
	best.addCandidate(repCandidate{id: d.Ann, preview: d.Preview, sim: sim})
	best.electRep()
	c.memberGroup[d.Ann] = best
}

// Remove implements Object: drops members, re-elects representatives, and
// discards emptied groups. Groups are not re-split — projection curates,
// it does not re-cluster (§2.1).
func (c *clusterObject) Remove(drop func(annotation.ID) bool) {
	var ids []annotation.ID
	hit := map[*clusterGroup]bool{}
	for id, g := range c.memberGroup {
		if drop(id) {
			ids = append(ids, id)
			hit[g] = true
		}
	}
	if len(ids) == 0 {
		return
	}
	owned := make([]*clusterGroup, 0, len(hit))
	for g := range hit {
		owned = append(owned, c.ownGroup(g))
	}
	for _, id := range ids {
		c.memberGroup[id].removeMember(id)
		delete(c.memberGroup, id)
	}
	for _, g := range owned {
		if len(g.members) > 0 {
			g.pruneCandidates()
			g.electRep()
		}
	}
	c.groups = slices.DeleteFunc(c.groups, func(g *clusterGroup) bool { return len(g.members) == 0 })
}

// MergeFrom implements Object. Groups from both sides that share a member
// annotation are combined — including transitively, so the result is the
// connected-component join of the two partitions and therefore independent
// of merge order. When the instance sets MergeBySimilarity, non-overlapping
// incoming groups whose centroid is close enough to an existing group are
// also combined (the Figure 2 A1+B5 behaviour; best-effort under plan
// reordering, see the type comment). An incoming group that meets no local
// group is adopted as is, shared with other.
func (c *clusterObject) MergeFrom(other Object) {
	o, ok := other.(*clusterObject)
	if !ok || o.inst.Name != c.inst.Name {
		panic(fmt.Sprintf("summary: merge of incompatible objects (instance %q)", c.inst.Name))
	}
	var overlap []*clusterGroup // reused across incoming groups
	for _, og := range o.sortedGroups() {
		// Find every local group sharing a member with og.
		overlap = overlap[:0]
		for id := range og.members {
			if g, ok := c.memberGroup[id]; ok && !slices.Contains(overlap, g) {
				overlap = append(overlap, g)
			}
		}
		var target *clusterGroup
		switch {
		case len(overlap) > 0:
			target = c.combineGroups(overlap)
		case c.inst.MergeBySimilarity:
			bestSim := 0.0
			for _, g := range c.sortedGroups() {
				sim := textmining.Cosine(g.centroid, og.centroid)
				if sim >= c.inst.SimThreshold && sim > bestSim+1e-12 {
					target, bestSim = g, sim
				}
			}
		}
		if target == nil {
			og.share()
			c.groups = append(c.groups, og)
			for id := range og.members {
				c.memberGroup[id] = og
			}
			continue
		}
		target = c.ownGroup(target)
		added := false
		for id := range og.members {
			if c.Contains(id) {
				continue // already counted (possibly in target itself)
			}
			target.addMember(id)
			c.memberGroup[id] = target
			added = true
		}
		if added {
			target.centroid.Add(og.centroid)
		}
		target.candidates = append(target.candidates, og.candidates...)
		sortCandidates(target.candidates)
		target.candidates = dedupCandidates(target.candidates)
		if len(target.candidates) > repCandidates {
			target.candidates = target.candidates[:repCandidates]
		}
		target.pruneCandidates()
		target.electRep()
	}
}

// combineGroups fuses a set of local groups into one (bridged by an
// incoming group) and returns the fused group.
func (c *clusterObject) combineGroups(groups []*clusterGroup) *clusterGroup {
	// Deterministic fuse order: ascending min member id.
	slices.SortFunc(groups, byMinID)
	target := c.ownGroup(groups[0])
	for _, g := range groups[1:] {
		for id := range g.members {
			target.addMember(id)
			c.memberGroup[id] = target
		}
		target.centroid.Add(g.centroid)
		target.candidates = append(target.candidates, g.candidates...)
	}
	if len(groups) > 1 {
		sortCandidates(target.candidates)
		target.candidates = dedupCandidates(target.candidates)
		if len(target.candidates) > repCandidates {
			target.candidates = target.candidates[:repCandidates]
		}
		kept := c.groups[:0]
		for _, g := range c.groups {
			if g == target || !slices.Contains(groups, g) {
				kept = append(kept, g)
			}
		}
		c.groups = kept
		target.electRep()
	}
	return target
}

// Clone implements Object: a new group list and member index over the same
// groups, which both objects then hold shared.
func (c *clusterObject) Clone() Object {
	for _, g := range c.groups {
		g.share()
	}
	return &clusterObject{inst: c.inst, groups: slices.Clone(c.groups), memberGroup: maps.Clone(c.memberGroup)}
}

// ownGroup returns g ready to be changed in place: a shared group is first
// replaced, in the group list and the member index, by a private copy.
func (c *clusterObject) ownGroup(g *clusterGroup) *clusterGroup {
	if !g.isShared() {
		return g
	}
	cp := &clusterGroup{
		members:    make(map[annotation.ID]struct{}, len(g.members)),
		candidates: slices.Clone(g.candidates),
		centroid:   g.centroid.Clone(),
		rep:        g.rep,
		repPreview: g.repPreview,
		min:        g.min,
		hasMin:     g.hasMin,
	}
	for id := range g.members {
		cp.members[id] = struct{}{}
		c.memberGroup[id] = cp
	}
	c.groups[slices.Index(c.groups, g)] = cp
	return cp
}

// sortedGroups returns the groups in canonical order (ascending minimum
// member id) — the order used for rendering and 1-based zoom indexes.
func (c *clusterObject) sortedGroups() []*clusterGroup {
	gs := slices.Clone(c.groups)
	slices.SortFunc(gs, byMinID)
	return gs
}

func byMinID(a, b *clusterGroup) int { return cmp.Compare(a.minID(), b.minID()) }

// Members implements Object.
func (c *clusterObject) Members() []annotation.ID { return sortedIDs(mapKeys(c.memberGroup)) }

// Len implements Object.
func (c *clusterObject) Len() int { return len(c.memberGroup) }

// Groups returns the number of groups.
func (c *clusterObject) Groups() int { return len(c.groups) }

// Representatives returns the representative annotation id of each group in
// canonical order.
func (c *clusterObject) Representatives() []annotation.ID {
	gs := c.sortedGroups()
	out := make([]annotation.ID, len(gs))
	for i, g := range gs {
		out[i] = g.rep
	}
	return out
}

// Elements implements Object: one element per group in canonical order,
// labelled by the representative's preview and resolving to the group's
// full membership (the paper's "retrieve all annotations in the cluster
// represented by annotation A2").
func (c *clusterObject) Elements() []Element {
	return memoised(&c.shown.elems, c.isShared(), c.elements)
}

func (c *clusterObject) elements() []Element {
	gs := c.sortedGroups()
	out := make([]Element, len(gs))
	for i, g := range gs {
		out[i] = Element{Label: g.displayLabel(), IDs: g.sortedIDs()}
	}
	return out
}

// displayLabel returns the group's display label, e.g.
// `"size seems wrong" ×3`.
func (g *clusterGroup) displayLabel() string {
	return memoised(&g.label, g.isShared(), func() string {
		var b strings.Builder
		b.Grow(len(g.repPreview) + 16)
		writeQuoted(&b, g.repPreview)
		b.WriteString(" ×")
		b.WriteString(strconv.Itoa(len(g.members)))
		return b.String()
	})
}

// sortedIDs returns the group's member ids, sorted ascending.
func (g *clusterGroup) sortedIDs() []annotation.ID {
	return memoised(&g.ids, g.isShared(), func() []annotation.ID { return sortedIDs(mapKeys(g.members)) })
}

// Zoom implements Object.
func (c *clusterObject) Zoom(index int) ([]annotation.ID, error) { return zoom(c, index) }

// Render implements Object, e.g.
// `SimCluster {[A12 "found eating stonewort…" ×5] [A3 "size seems wrong" ×1]}`.
func (c *clusterObject) Render() string { return memoised(&c.shown.text, c.isShared(), c.render) }

func (c *clusterObject) render() string {
	gs := c.sortedGroups()
	labels := make([]string, len(gs))
	var digits [20]byte
	n := len(c.inst.Name) + 3 // " {" and "}"
	for i, g := range gs {
		labels[i] = g.displayLabel()
		n += len(labels[i]) + len(strconv.AppendUint(digits[:0], uint64(g.rep), 10)) + 5 // " [A", " ", "]"
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteString(c.inst.Name)
	b.WriteString(" {")
	for i, g := range gs {
		if i > 0 {
			b.WriteString(" ")
		}
		b.WriteString("[A")
		b.Write(strconv.AppendUint(digits[:0], uint64(g.rep), 10))
		b.WriteByte(' ')
		b.WriteString(labels[i])
		b.WriteByte(']')
	}
	b.WriteString("}")
	return b.String()
}

// ApproxBytes implements Object.
func (c *clusterObject) ApproxBytes() int {
	n := 0
	for _, g := range c.groups {
		n += 8 + 8*len(g.members) // rep + member ids
		for _, cand := range g.candidates {
			n += 16 + len(cand.preview)
		}
		for t := range g.centroid {
			n += len(t) + 8
		}
	}
	return n
}

// Equal implements Object: identical grouping of identical members with
// identical representatives.
func (c *clusterObject) Equal(other Object) bool {
	o, ok := other.(*clusterObject)
	if !ok || o.inst.Name != c.inst.Name {
		return false
	}
	ga, gb := c.sortedGroups(), o.sortedGroups()
	if len(ga) != len(gb) {
		return false
	}
	for i := range ga {
		if ga[i].rep != gb[i].rep || len(ga[i].members) != len(gb[i].members) {
			return false
		}
		for id := range ga[i].members {
			if _, ok := gb[i].members[id]; !ok {
				return false
			}
		}
	}
	return true
}
