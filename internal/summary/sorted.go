package summary

import (
	"cmp"
	"slices"

	"insightnotes/internal/annotation"
)

// Sorted id lists. Every per-annotation collection a summary keeps — an
// envelope's coverage, a classifier's labels, a snippet object's entries,
// a cluster group's members — is a slice sorted by annotation id with no
// id repeated. A merge of k such lists is one k-way pass and a removal a
// linear walk, and the lists of coverage, labels and members hold no
// pointers, so the garbage collector does not scan them. The helpers below
// are that list algebra; key extracts an entry's id.

// mergeSorted merges lists into a new sorted list. An entry whose id an
// earlier list already holds is handed to join together with the kept
// entry, or dropped when join is nil. It is one pass (see kwayMerge) that
// copies each run of a list's entries below every other list's head in one
// step, into a buffer of n entries for n entries in all. A result shorter
// than n/2 (ids repeated across the lists) is copied out of its buffer, so
// that it never keeps more than twice its length alive. lists itself is
// overwritten.
func mergeSorted[E any](lists [][]E, key func(E) annotation.ID, join func(kept *E, dup E)) []E {
	n := 0
	for _, l := range lists {
		n += len(l)
	}
	if n == 0 {
		return nil
	}
	out := make([]E, 0, n)
	kwayMerge(lists, key,
		func(_ int, run []E) { out = append(out, run...) },
		func(_, _ int, dup E) {
			if join != nil {
				join(&out[len(out)-1], dup)
			}
		})
	if 2*len(out) < n {
		return slices.Clone(out)
	}
	return out
}

// kwayMerge walks lists, each sorted by key with no id repeated, in one
// pass in ascending id order. A heap of the lists' heads picks the list
// with the smallest head (the earliest list on a tie), and run is called
// with the list's index and its entries below every other list's head, a
// run of at least one entry. An id other lists hold too ends the run after
// it: dup is then called, in list order, with the run's list, each later
// list holding the id, and that list's entry. Finding the end of a run of
// r entries calls key O(log r) times. lists itself is overwritten.
func kwayMerge[E any](lists [][]E, key func(E) annotation.ID, run func(list int, entries []E), dup func(kept, list int, entry E)) {
	h := make(heads, 0, len(lists))
	for i, l := range lists {
		if len(l) > 0 {
			h = append(h, head{key(l[0]), int32(i)})
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	// advance drops the first k entries of the list at the top.
	advance := func(k int) {
		i := h[0].list
		if lists[i] = lists[i][k:]; len(lists[i]) > 0 {
			h[0].id = key(lists[i][0])
		} else {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		if len(h) > 0 {
			h.down(0)
		}
	}
	for len(h) > 0 {
		top := h[0]
		l := lists[top.list]
		if len(h) == 1 {
			run(int(top.list), l)
			return
		}
		next := h[1].id
		if len(h) > 2 && h[2].id < next {
			next = h[2].id
		}
		if top.id < next {
			k := runEnd(l, next, key)
			run(int(top.list), l[:k])
			advance(k)
			continue
		}
		run(int(top.list), l[:1])
		advance(1)
		for len(h) > 0 && h[0].id == top.id {
			j := h[0].list
			dup(int(top.list), int(j), lists[j][0])
			advance(1)
		}
	}
}

// head is a list's first id in kwayMerge's heap.
type head struct {
	id   annotation.ID
	list int32
}

// heads is a binary min-heap of list heads ordered by (id, list).
type heads []head

func (a head) before(b head) bool { return a.id < b.id || a.id == b.id && a.list < b.list }

// down moves h[i] down to its place the bottom-up way: the hole left by
// h[i] sinks to a leaf along the smaller children, one comparison a level,
// and h[i] rises from there. A replaced head usually belongs near the
// bottom, where the usual sift's second comparison a level is wasted.
func (h heads) down(i int) {
	x, j := h[i], i
	for {
		c := 2*j + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && h[r].before(h[c]) {
			c = r
		}
		h[j], j = h[c], c
	}
	for j > i {
		p := (j - 1) / 2
		if !x.before(h[p]) {
			break
		}
		h[j], j = h[p], p
	}
	h[j] = x
}

// runEnd returns the number of leading entries of l (whose first entry's
// key is below bound) with a key below bound: a gallop, then a binary
// search.
func runEnd[E any](l []E, bound annotation.ID, key func(E) annotation.ID) int {
	lo, hi := 0, 1 // key(l[lo]) < bound
	for hi < len(l) && key(l[hi]) < bound {
		lo, hi = hi, 2*hi+1
	}
	hi = min(hi, len(l)) // hi == len(l) or key(l[hi]) >= bound
	for lo+1 < hi {
		m := int(uint(lo+hi) >> 1)
		if key(l[m]) < bound {
			lo = m
		} else {
			hi = m
		}
	}
	return hi
}

// without returns list minus its entries whose id is in ids (sorted
// ascending). A list holding none of ids is returned as is; otherwise the
// result is written over list when inPlace is set, else into a new slice.
// The walk starts at the first of ids not below list's first id and ends
// once ids run out, so a list (a cluster group) spanning a few of many ids
// costs its own length and a binary search.
func without[E any](list []E, ids []annotation.ID, key func(E) annotation.ID, inPlace bool) []E {
	if len(list) == 0 {
		return list
	}
	var out []E
	cut := false
	j, _ := slices.BinarySearch(ids, key(list[0]))
	for i, e := range list {
		k := key(e)
		for j < len(ids) && ids[j] < k {
			j++
		}
		if j == len(ids) {
			if !cut {
				return list
			}
			return append(out, list[i:]...)
		}
		if ids[j] == k {
			if !cut {
				cut = true
				if inPlace {
					out = list[:i]
				} else {
					out = append(make([]E, 0, len(list)-1), list[:i]...)
				}
			}
			continue
		}
		if cut {
			out = append(out, e)
		}
	}
	if !cut {
		return list
	}
	return out
}

// search returns the position of id in list, or where it would be
// inserted, and whether list holds it.
func search[E any](list []E, id annotation.ID, key func(E) annotation.ID) (int, bool) {
	return slices.BinarySearchFunc(list, id, func(e E, id annotation.ID) int { return cmp.Compare(key(e), id) })
}

// idOf is the key of a plain id list.
func idOf(id annotation.ID) annotation.ID { return id }

// idsOf returns the ids of list.
func idsOf[E any](list []E, key func(E) annotation.ID) []annotation.ID {
	out := make([]annotation.ID, len(list))
	for i, e := range list {
		out[i] = key(e)
	}
	return out
}
