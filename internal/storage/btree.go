package storage

import (
	"bytes"
	"fmt"
	"sync"
)

// BTree is an in-memory B+tree mapping byte keys to uint64 values (row ids
// or packed RIDs). Duplicate keys are permitted; an entry is the pair
// (key, value) and entries are totally ordered by key then value, so
// Delete removes exactly one logical entry.
//
// A tree lives in memory only: an index is built from its table's rows
// when it is created or recovered, never read from pages. The tree is
// safe for concurrent use.
type BTree struct {
	mu   sync.RWMutex
	root btNode
	size int
}

// btOrder is the maximum number of entries in a leaf and children in an
// inner node before a split.
const btOrder = 64

type btNode interface {
	// insert adds (key, val); on split it returns the new right sibling
	// and the separator key that belongs between the halves.
	insert(key []byte, val uint64) (sep []byte, right btNode)
	// delete removes (key, val); returns whether an entry was removed.
	delete(key []byte, val uint64) bool
}

type btLeaf struct {
	keys [][]byte
	vals []uint64
	next *btLeaf
}

type btInner struct {
	keys     [][]byte // len(children) - 1 separators
	children []btNode
}

// NewBTree returns an empty tree.
func NewBTree() *BTree { return &BTree{root: &btLeaf{}} }

// Len returns the number of entries.
func (t *BTree) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.size
}

// entryLess orders entries by key, then value.
func entryLess(k1 []byte, v1 uint64, k2 []byte, v2 uint64) bool {
	if c := bytes.Compare(k1, k2); c != 0 {
		return c < 0
	}
	return v1 < v2
}

// Insert adds the entry (key, val). The key slice is copied.
func (t *BTree) Insert(key []byte, val uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	k := append([]byte(nil), key...)
	sep, right := t.root.insert(k, val)
	if right != nil {
		t.root = &btInner{keys: [][]byte{sep}, children: []btNode{t.root, right}}
	}
	t.size++
}

// Delete removes the entry (key, val), reporting whether it existed.
// Deletion is lazy: leaves may underflow, which preserves search
// correctness while avoiding rebalancing; annotation indexes are
// append-mostly so underflow is rare in practice.
func (t *BTree) Delete(key []byte, val uint64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.root.delete(key, val) {
		t.size--
		return true
	}
	return false
}

// Seek returns the values stored under exactly key. Values under one key
// are value-sorted within a leaf but carry no global order guarantee once
// duplicates span leaves.
func (t *BTree) Seek(key []byte) []uint64 {
	var out []uint64
	t.Scan(key, KeySuccessorExact(key), func(k []byte, v uint64) bool {
		if bytes.Equal(k, key) {
			out = append(out, v)
		}
		return true
	})
	return out
}

// KeySuccessorExact returns an exclusive upper bound that admits only the
// exact key (key + one zero byte works because entries with longer keys
// compare greater).
func KeySuccessorExact(key []byte) []byte {
	out := make([]byte, len(key), len(key)+1)
	copy(out, key)
	return append(out, 0x00)
}

// CountRange reports the number of entries with lo <= key < hi, visiting
// at most limit entries (limit <= 0 means unlimited). The second result
// reports whether counting stopped at the limit — this is the planner's
// "index dive" primitive: a capped dive means "at least limit matches",
// which is enough to reject the index without walking the whole range.
func (t *BTree) CountRange(lo, hi []byte, limit int) (n int, capped bool) {
	t.Scan(lo, hi, func([]byte, uint64) bool {
		n++
		if limit > 0 && n >= limit {
			capped = true
			return false
		}
		return true
	})
	return n, capped
}

// Scan visits entries with lo <= key < hi in ascending entry order. A nil
// lo means from the beginning; a nil hi means to the end. fn returning
// false stops the scan.
func (t *BTree) Scan(lo, hi []byte, fn func(key []byte, val uint64) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	leaf, idx := t.seekLeaf(lo)
	for leaf != nil {
		for ; idx < len(leaf.keys); idx++ {
			k := leaf.keys[idx]
			if hi != nil && bytes.Compare(k, hi) >= 0 {
				return
			}
			if !fn(k, leaf.vals[idx]) {
				return
			}
		}
		leaf = leaf.next
		idx = 0
	}
}

// Verify checks the tree's structural invariants — the scrubber's index
// half. Within every leaf, entries must be (key, value)-sorted; inner
// separators must be non-decreasing and fence their children (duplicates
// spanning a split make the fences inclusive on both sides: child i holds
// entries in [keys[i-1], keys[i]]); every child slice must be one longer
// than its separator slice; the leaf chain must equal the in-order leaf
// sequence; and the entry count must match the tracked size.
func (t *BTree) Verify() error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	count := 0
	var prevLeaf *btLeaf
	var walk func(n btNode, lo, hi []byte) error
	walk = func(n btNode, lo, hi []byte) error {
		switch nd := n.(type) {
		case *btLeaf:
			if len(nd.vals) != len(nd.keys) {
				return fmt.Errorf("storage: btree leaf has %d keys but %d values", len(nd.keys), len(nd.vals))
			}
			for i := range nd.keys {
				if i > 0 && entryLess(nd.keys[i], nd.vals[i], nd.keys[i-1], nd.vals[i-1]) {
					return fmt.Errorf("storage: btree leaf entries out of order at %d", i)
				}
				if lo != nil && bytes.Compare(nd.keys[i], lo) < 0 {
					return fmt.Errorf("storage: btree leaf key below its separator fence")
				}
				if hi != nil && bytes.Compare(nd.keys[i], hi) > 0 {
					return fmt.Errorf("storage: btree leaf key above its separator fence")
				}
			}
			if prevLeaf != nil && prevLeaf.next != nd {
				return fmt.Errorf("storage: btree leaf chain does not match the in-order leaf sequence")
			}
			prevLeaf = nd
			count += len(nd.keys)
			return nil
		case *btInner:
			if len(nd.children) != len(nd.keys)+1 {
				return fmt.Errorf("storage: btree inner node has %d separators but %d children", len(nd.keys), len(nd.children))
			}
			for i := 1; i < len(nd.keys); i++ {
				if bytes.Compare(nd.keys[i-1], nd.keys[i]) > 0 {
					return fmt.Errorf("storage: btree inner separators out of order at %d", i)
				}
			}
			for i, c := range nd.children {
				clo, chi := lo, hi
				if i > 0 {
					clo = nd.keys[i-1]
				}
				if i < len(nd.keys) {
					chi = nd.keys[i]
				}
				if err := walk(c, clo, chi); err != nil {
					return err
				}
			}
			return nil
		default:
			return fmt.Errorf("storage: btree node of unknown type %T", n)
		}
	}
	if err := walk(t.root, nil, nil); err != nil {
		return err
	}
	if prevLeaf != nil && prevLeaf.next != nil {
		return fmt.Errorf("storage: btree leaf chain has a dangling tail")
	}
	if count != t.size {
		return fmt.Errorf("storage: btree tracks %d entries but holds %d", t.size, count)
	}
	return nil
}

// seekLeaf finds the leftmost leaf position whose key >= lo.
func (t *BTree) seekLeaf(lo []byte) (*btLeaf, int) {
	n := t.root
	for {
		switch nd := n.(type) {
		case *btLeaf:
			idx := 0
			if lo != nil {
				idx = lowerBound(nd.keys, lo)
			}
			return nd, idx
		case *btInner:
			i := 0
			if lo != nil {
				for i < len(nd.keys) && bytes.Compare(nd.keys[i], lo) < 0 {
					i++
				}
			}
			n = nd.children[i]
		}
	}
}

// lowerBound returns the first index with keys[i] >= key.
func lowerBound(keys [][]byte, key []byte) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(keys[mid], key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// ---- leaf operations ----

func (l *btLeaf) insert(key []byte, val uint64) ([]byte, btNode) {
	// Position by (key, val) order to keep duplicates value-sorted.
	i := 0
	for i < len(l.keys) && entryLess(l.keys[i], l.vals[i], key, val) {
		i++
	}
	l.keys = append(l.keys, nil)
	copy(l.keys[i+1:], l.keys[i:])
	l.keys[i] = key
	l.vals = append(l.vals, 0)
	copy(l.vals[i+1:], l.vals[i:])
	l.vals[i] = val
	if len(l.keys) <= btOrder {
		return nil, nil
	}
	// Split in half; the right sibling's first key is the separator.
	mid := len(l.keys) / 2
	right := &btLeaf{
		keys: append([][]byte(nil), l.keys[mid:]...),
		vals: append([]uint64(nil), l.vals[mid:]...),
		next: l.next,
	}
	l.keys = l.keys[:mid:mid]
	l.vals = l.vals[:mid:mid]
	l.next = right
	return right.keys[0], right
}

func (l *btLeaf) delete(key []byte, val uint64) bool {
	i := lowerBound(l.keys, key)
	for ; i < len(l.keys) && bytes.Equal(l.keys[i], key); i++ {
		if l.vals[i] == val {
			l.keys = append(l.keys[:i], l.keys[i+1:]...)
			l.vals = append(l.vals[:i], l.vals[i+1:]...)
			return true
		}
	}
	return false
}

// ---- inner operations ----

func (in *btInner) childFor(key []byte, val uint64) int {
	i := 0
	// Descend right of separators <= key so duplicate keys spanning a
	// split remain reachable; separators equal to key require searching
	// the right subtree (entries >= separator live right).
	for i < len(in.keys) && bytes.Compare(in.keys[i], key) <= 0 {
		i++
	}
	return i
}

func (in *btInner) insert(key []byte, val uint64) ([]byte, btNode) {
	i := in.childFor(key, val)
	sep, right := in.children[i].insert(key, val)
	if right == nil {
		return nil, nil
	}
	in.keys = append(in.keys, nil)
	copy(in.keys[i+1:], in.keys[i:])
	in.keys[i] = sep
	in.children = append(in.children, nil)
	copy(in.children[i+2:], in.children[i+1:])
	in.children[i+1] = right
	if len(in.children) <= btOrder {
		return nil, nil
	}
	mid := len(in.keys) / 2
	upSep := in.keys[mid]
	rightNode := &btInner{
		keys:     append([][]byte(nil), in.keys[mid+1:]...),
		children: append([]btNode(nil), in.children[mid+1:]...),
	}
	in.keys = in.keys[:mid:mid]
	in.children = in.children[: mid+1 : mid+1]
	return upSep, rightNode
}

func (in *btInner) delete(key []byte, val uint64) bool {
	// The entry could sit in any child whose range admits key; with
	// duplicates, equal keys may span multiple children. Try the natural
	// child first, then neighbours that could also contain the key.
	i := 0
	for i < len(in.keys) && bytes.Compare(in.keys[i], key) < 0 {
		i++
	}
	// children[i] is the first child that may contain key; equal separators
	// mean the key may continue into following children.
	for ; i < len(in.children); i++ {
		if in.children[i].delete(key, val) {
			return true
		}
		if i < len(in.keys) && bytes.Compare(in.keys[i], key) > 0 {
			break
		}
	}
	return false
}
