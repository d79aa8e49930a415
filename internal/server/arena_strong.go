//go:build !go1.24

package server

// spareChunk holds a released chunk. Go before 1.24 has no weak
// pointers, so a stream keeps its spares until it closes: as many as it
// has ever had chunks in use at once.
type spareChunk struct{ c *[arenaChunk]byte }

// weakSpares reports whether a GC collects a stream's spare chunks.
const weakSpares = false

func makeSpare(c *[arenaChunk]byte) spareChunk { return spareChunk{c} }

// Value returns the chunk.
func (s spareChunk) Value() *[arenaChunk]byte { return s.c }
