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
// group memoises its label the way a shared object memoises its
// presentation, so every object holding it, an unshared accumulator
// included, reuses it.
type clusterGroup struct {
	// members is the group's annotation ids, sorted ascending: the list
	// Elements hands out. It is only ever extended at its tail in place;
	// any other change writes a new list, so a list once handed out, or
	// shared with a private copy of the group, never changes.
	members []annotation.ID
	// pending holds members a MergeFrom added out of order until it
	// settles the group, so a merge of many objects into one growing
	// group sorts once instead of rewriting the list per object.
	pending    []annotation.ID
	candidates []repCandidate // sorted by (sim desc, id asc), len ≤ repCandidates
	centroid   textmining.Vector
	rep        annotation.ID
	repPreview string
	// min is the smallest member id, pending ones included: the canonical
	// group sort key.
	min annotation.ID
	sharedFlag
	label atomic.Pointer[string]
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
	g.trimCandidates()
}

// trimCandidates sorts the candidate list, drops repeated ids and keeps
// the top repCandidates entries.
func (g *clusterGroup) trimCandidates() {
	slices.SortFunc(g.candidates, func(a, b repCandidate) int {
		return cmp.Or(cmp.Compare(b.sim, a.sim), cmp.Compare(a.id, b.id))
	})
	g.candidates = dedupCandidates(g.candidates)
	if len(g.candidates) > repCandidates {
		g.candidates = g.candidates[:repCandidates]
	}
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

// add makes id a member of g: appended when it sorts last and nothing is
// pending, else pending until settle.
func (g *clusterGroup) add(id annotation.ID) {
	if len(g.members)+len(g.pending) == 0 || id < g.min {
		g.min = id
	}
	if n := len(g.members); len(g.pending) == 0 && (n == 0 || id > g.members[n-1]) {
		g.members = append(g.members, id)
		return
	}
	g.pending = append(g.pending, id)
}

// settle merges the pending members into a new sorted member list.
func (g *clusterGroup) settle() {
	if len(g.pending) == 0 {
		return
	}
	slices.Sort(g.pending)
	g.members = merge2(make([]annotation.ID, 0, len(g.members)+len(g.pending)), g.members, g.pending, idOf, nil)
	g.pending = nil
}

// elect drops g's candidates that are no longer its members and elects the
// representative: the best surviving candidate, or the smallest member id
// (with a placeholder preview) when every candidate was curated away. Must
// be called after any membership change, once memberGroup is up to date.
func (c *clusterObject) elect(g *clusterGroup) {
	g.candidates = slices.DeleteFunc(g.candidates, func(k repCandidate) bool { return c.memberGroup[k.id] != g })
	if len(g.candidates) > 0 {
		g.rep, g.repPreview = g.candidates[0].id, g.candidates[0].preview
		return
	}
	g.rep = g.min
	g.repPreview = fmt.Sprintf("(annotation %d)", g.rep)
}

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
		best = &clusterGroup{centroid: textmining.NewVector()}
		c.groups = append(c.groups, best)
	} else {
		best = c.ownGroup(best)
	}
	best.centroid.Add(d.Vector)
	best.centroid.Prune(c.inst.CentroidTerms * 2)
	sim := textmining.Cosine(best.centroid, d.Vector)
	best.add(d.Ann)
	best.settle()
	c.memberGroup[d.Ann] = best
	best.addCandidate(repCandidate{id: d.Ann, preview: d.Preview, sim: sim})
	c.elect(best)
}

// Remove implements Object: drops members, re-elects representatives, and
// discards emptied groups. Groups are not re-split — projection curates,
// it does not re-cluster (§2.1).
func (c *clusterObject) Remove(ids []annotation.ID) Object {
	hits := 0
	for _, id := range ids {
		if c.Contains(id) {
			hits++
		}
	}
	switch {
	case hits == 0:
		return c
	case c.isShared() && hits == c.Len():
		return c.inst.NewObject()
	case c.isShared():
		c = c.Clone().(*clusterObject)
	}
	var touched []*clusterGroup
	seen := map[*clusterGroup]bool{}
	for _, id := range ids {
		if g, ok := c.memberGroup[id]; ok && !seen[g] {
			g = c.ownGroup(g)
			seen[g] = true
			touched = append(touched, g)
		}
	}
	for _, id := range ids {
		delete(c.memberGroup, id)
	}
	for _, g := range touched {
		kept := make([]annotation.ID, 0, len(g.members))
		for _, id := range g.members {
			if c.memberGroup[id] == g {
				kept = append(kept, id)
			}
		}
		g.members = kept
		if len(kept) > 0 {
			g.min = kept[0]
			c.elect(g)
		}
	}
	c.groups = slices.DeleteFunc(c.groups, func(g *clusterGroup) bool { return len(g.members) == 0 })
	return c
}

// MergeFrom implements Object by folding others into the receiver one
// after another, then settling the groups that took members out of order.
// Groups from both sides that share a member annotation are combined —
// including transitively, so the result is the connected-component join of
// the partitions and therefore independent of merge order. When the
// instance sets MergeBySimilarity, non-overlapping incoming groups whose
// centroid is close enough to an existing group are also combined (the
// Figure 2 A1+B5 behaviour; best-effort under plan reordering, see the type
// comment). An incoming group that meets no local group is adopted as is,
// shared with its object.
func (c *clusterObject) MergeFrom(others ...Object) Object {
	for _, other := range others {
		if o, ok := other.(*clusterObject); !ok || o.inst.Name != c.inst.Name {
			panic(fmt.Sprintf("summary: merge of incompatible objects (instance %q)", c.inst.Name))
		}
	}
	if c.isShared() {
		c = c.Clone().(*clusterObject)
	}
	for _, other := range others {
		c.fold(other.(*clusterObject))
	}
	for _, g := range c.groups {
		g.settle()
	}
	return c
}

// fold merges one object into c, leaving out-of-order members pending.
func (c *clusterObject) fold(o *clusterObject) {
	var overlap []*clusterGroup // reused across incoming groups
	for _, og := range o.sortedGroups() {
		// Find every local group sharing a member with og.
		overlap = overlap[:0]
		for _, id := range og.members {
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
			for _, id := range og.members {
				c.memberGroup[id] = og
			}
			continue
		}
		target = c.ownGroup(target)
		added := false
		for _, id := range og.members {
			if c.Contains(id) {
				continue // already counted (possibly in target itself)
			}
			target.add(id)
			c.memberGroup[id] = target
			added = true
		}
		if added {
			target.centroid.Add(og.centroid)
		}
		target.candidates = append(target.candidates, og.candidates...)
		target.trimCandidates()
		c.elect(target)
	}
}

// combineGroups fuses a set of local groups into one (bridged by an
// incoming group) and returns the fused group.
func (c *clusterObject) combineGroups(groups []*clusterGroup) *clusterGroup {
	// Deterministic fuse order: ascending min member id.
	slices.SortFunc(groups, byMinID)
	target := c.ownGroup(groups[0])
	for _, g := range groups[1:] {
		for _, ids := range [2][]annotation.ID{g.members, g.pending} {
			for _, id := range ids {
				target.add(id)
				c.memberGroup[id] = target
			}
		}
		target.centroid.Add(g.centroid)
		target.candidates = append(target.candidates, g.candidates...)
	}
	if len(groups) > 1 {
		target.trimCandidates()
		kept := c.groups[:0]
		for _, g := range c.groups {
			if g == target || !slices.Contains(groups, g) {
				kept = append(kept, g)
			}
		}
		c.groups = kept
		c.elect(target)
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
// replaced, in the group list and the member index, by a private copy. The
// copy starts on g's member list, capped so that its first append copies.
func (c *clusterObject) ownGroup(g *clusterGroup) *clusterGroup {
	if !g.isShared() {
		return g
	}
	cp := &clusterGroup{
		members:    slices.Clip(g.members),
		candidates: slices.Clone(g.candidates),
		centroid:   g.centroid.Clone(),
		rep:        g.rep,
		repPreview: g.repPreview,
		min:        g.min,
	}
	for _, id := range g.members {
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

func byMinID(a, b *clusterGroup) int { return cmp.Compare(a.min, b.min) }

// Members implements Object: the groups' lists merged.
func (c *clusterObject) Members() []annotation.ID {
	lists := make([][]annotation.ID, len(c.groups))
	for i, g := range c.groups {
		lists[i] = g.members
	}
	return mergeSorted(lists, idOf, nil)
}

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
		out[i] = Element{Label: g.displayLabel(), IDs: slices.Clip(g.members)}
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
		if ga[i].rep != gb[i].rep || !slices.Equal(ga[i].members, gb[i].members) {
			return false
		}
	}
	return true
}
