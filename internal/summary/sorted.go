package summary

import (
	"cmp"
	"slices"

	"insightnotes/internal/annotation"
)

// Sorted id lists. Every per-annotation collection a summary keeps — an
// envelope's coverage, a classifier's labels, a snippet object's entries,
// a cluster group's members — is a slice sorted by annotation id with no
// id repeated. A merge of such lists is a linear merge and a removal a
// linear walk, and the lists of coverage, labels and members hold no
// pointers, so the garbage collector does not scan them. The helpers below
// are that list algebra; key extracts an entry's id.

// mergeSorted merges lists into a new sorted list. An entry whose id an
// earlier list already holds is handed to join together with the kept
// entry, or dropped when join is nil. Lists are merged pairwise, a level
// at a time, O(n log k) for n entries in k lists, through two buffers of
// n entries, so a merge of many lists never copies the growing result once
// per list. A result shorter than n/2 (ids repeated across the lists) is
// copied out of its buffer, so that it never keeps more than twice its
// length alive. lists itself is overwritten.
func mergeSorted[E any](lists [][]E, key func(E) annotation.ID, join func(kept *E, dup E)) []E {
	n := 0
	for _, l := range lists {
		n += len(l)
	}
	switch len(lists) {
	case 0:
		return nil
	case 1:
		return slices.Clone(lists[0])
	case 2:
		return merge2(make([]E, 0, n), lists[0], lists[1], key, join)
	}
	buf, spare := make([]E, 0, n), make([]E, 0, n)
	level := lists
	for len(level) > 1 {
		next := level[:0]
		buf = buf[:0]
		for i := 0; i < len(level); i += 2 {
			from := len(buf)
			if i+1 < len(level) {
				buf = merge2(buf, level[i], level[i+1], key, join)
			} else {
				buf = append(buf, level[i]...)
			}
			next = append(next, buf[from:len(buf):len(buf)])
		}
		level = next
		buf, spare = spare, buf
	}
	if out := level[0]; 2*len(out) < n {
		return slices.Clone(out)
	}
	return level[0]
}

// merge2 appends the merge of the sorted lists a and b to dst; on an id
// both hold, a's entry is kept and b's handed to join.
func merge2[E any](dst, a, b []E, key func(E) annotation.ID, join func(kept *E, dup E)) []E {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		ka, kb := key(a[i]), key(b[j])
		switch {
		case ka < kb:
			dst = append(dst, a[i])
			i++
		case kb < ka:
			dst = append(dst, b[j])
			j++
		default:
			dst = append(dst, a[i])
			if join != nil {
				join(&dst[len(dst)-1], b[j])
			}
			i++
			j++
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...)
}

// without returns list minus its entries whose id is in ids (sorted
// ascending). A list holding none of ids is returned as is; otherwise the
// result is written over list when inPlace is set, else into a new slice.
func without[E any](list []E, ids []annotation.ID, key func(E) annotation.ID, inPlace bool) []E {
	var out []E
	cut := false
	j := 0
	for i, e := range list {
		k := key(e)
		for j < len(ids) && ids[j] < k {
			j++
		}
		if j < len(ids) && ids[j] == k {
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
