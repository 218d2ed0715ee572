package dpexec

import "repro/internal/controlplane"

// ChunkCap and ChunkMin are the chunk bounds, for the external tests.
const (
	ChunkCap = chunkCap
	ChunkMin = chunkMin
)

// Chunk describes one chunk of a compiled table to the external tests:
// ID is the same in two images exactly when they share the chunk's
// arrays, Sources are the configuration entries it was compiled from,
// and Blocks their action blocks (nil for an entry without one), each
// the same value in two images exactly when the block was carried.
type Chunk struct {
	ID      *exEntry
	Sources []*controlplane.TableEntry
	Blocks  []any
}

// Chunks returns the named table's chunks in match order (nil when the
// image holds no such table).
func (img *Image) Chunks(qname string) []Chunk {
	ti, ok := img.tableIdx[qname]
	if !ok {
		return nil
	}
	var out []Chunk
	for _, c := range img.tables[ti].chunks {
		if len(c.entries) != len(c.meta) {
			panic("chunk entries and meta differ in length")
		}
		ch := Chunk{}
		if len(c.entries) > 0 {
			ch.ID = &c.entries[0]
		}
		for i := range c.meta {
			ch.Sources = append(ch.Sources, c.meta[i].src)
			var blk any
			if b := c.entries[i].blk; b != nil {
				blk = b
			}
			ch.Blocks = append(ch.Blocks, blk)
		}
		out = append(out, ch)
	}
	return out
}

// Tables names the image's tables.
func (img *Image) Tables() []string {
	out := make([]string, len(img.tables))
	for i, t := range img.tables {
		out[i] = t.qname
	}
	return out
}

// BlocksPortable reports whether entry blocks compiled for a address the
// same slots in b, the first of the conditions Recompile carries a
// table under.
func BlocksPortable(a, b *Image) bool { return a.cc.blocksPortable(b.cc) }

// Indexed reports whether the named table carries the exact-match index.
func (img *Image) Indexed(qname string) bool {
	ti, ok := img.tableIdx[qname]
	return ok && img.tables[ti].index != nil
}
