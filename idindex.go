package walrus

import (
	"slices"
	"strings"
)

// idChunks is the number of chunks the id index is split into.
const idChunks = 256

// idIndex maps image ids to catalog indexes. It is split into idChunks
// chunks by an FNV-1a hash of the id, each a slice of entries sorted by
// id, so that a write copies the chunk-pointer header and the one chunk it
// touches instead of the whole index. A published idIndex is immutable:
// readers call get and len without locks, and writers change only the
// idIndexWriter's private copies.
type idIndex struct {
	chunks *[idChunks]*[]idEntry // nil header or chunk = empty
	n      int
}

type idEntry struct {
	id  string
	idx int
}

// chunkOf returns the chunk holding id: its 32-bit FNV-1a hash mod
// idChunks.
func chunkOf(id string) int {
	h := uint32(2166136261)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= 16777619
	}
	return int(h % idChunks)
}

// search returns id's position in the sorted chunk c and whether it is
// there.
func search(c []idEntry, id string) (int, bool) {
	return slices.BinarySearchFunc(c, id, func(e idEntry, id string) int { return strings.Compare(e.id, id) })
}

// get returns the catalog index of id.
func (x idIndex) get(id string) (int, bool) {
	if x.chunks == nil {
		return 0, false
	}
	c := x.chunks[chunkOf(id)]
	if c == nil {
		return 0, false
	}
	i, ok := search(*c, id)
	if !ok {
		return 0, false
	}
	return (*c)[i].idx, true
}

// len returns the number of ids.
func (x idIndex) len() int { return x.n }

// idIndexWriter is the writer's copy-on-write handle on the live idIndex.
// After a publish the header and every chunk are shared with the
// published version; the first write copies the header, and the first
// write to each chunk clones that chunk. Guarded by the owning shard's mu.
type idIndexWriter struct {
	idIndex
	shared bool                  // header reachable from a published version
	owned  [idChunks / 64]uint64 // chunks cloned since the last publish
}

// set maps id to idx.
func (w *idIndexWriter) set(id string, idx int) {
	c := w.mutableChunk(chunkOf(id))
	i, ok := search(*c, id)
	if ok {
		(*c)[i].idx = idx
		return
	}
	*c = slices.Insert(*c, i, idEntry{id, idx})
	w.n++
}

// delete removes id, reporting whether it was present.
func (w *idIndexWriter) delete(id string) bool {
	if _, ok := w.get(id); !ok {
		return false
	}
	c := w.mutableChunk(chunkOf(id))
	i, _ := search(*c, id)
	*c = slices.Delete(*c, i, i+1)
	w.n--
	return true
}

// publish returns the current index for a published version; every later
// write copies before it mutates.
func (w *idIndexWriter) publish() idIndex {
	w.shared = true
	w.owned = [idChunks / 64]uint64{}
	return w.idIndex
}

// mutableChunk returns chunk k safe to mutate in place, copying the
// header and cloning the chunk (with room for one more entry) if the
// current version may share them.
func (w *idIndexWriter) mutableChunk(k int) *[]idEntry {
	if w.chunks == nil {
		w.chunks = new([idChunks]*[]idEntry)
		w.shared = false
	}
	if w.shared {
		header := *w.chunks
		w.chunks = &header
		w.shared = false
	}
	if bit := uint64(1) << (k % 64); w.owned[k/64]&bit == 0 {
		var old []idEntry
		if w.chunks[k] != nil {
			old = *w.chunks[k]
		}
		clone := append(make([]idEntry, 0, len(old)+1), old...)
		w.chunks[k] = &clone
		w.owned[k/64] |= bit
	}
	return w.chunks[k]
}
