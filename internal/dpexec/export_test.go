package dpexec

// ChunkCap and ChunkMin are the chunk bounds, for the external tests.
const (
	ChunkCap = chunkCap
	ChunkMin = chunkMin
)

// Chunk describes one chunk of a compiled table to the external tests:
// ID is the same in two images exactly when they share the chunk's
// arrays, Sources are the configuration entries it was compiled from.
type Chunk struct {
	ID      *exEntry
	Sources []any
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
		}
		out = append(out, ch)
	}
	return out
}

// Indexed reports whether the named table carries the exact-match index.
func (img *Image) Indexed(qname string) bool {
	ti, ok := img.tableIdx[qname]
	return ok && img.tables[ti].index != nil
}
