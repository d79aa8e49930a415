//go:build go1.24

package server

import "weak"

// spareChunk holds a released chunk weakly: the stream takes it back
// until the GC collects it.
type spareChunk = weak.Pointer[[arenaChunk]byte]

// weakSpares reports whether a GC collects a stream's spare chunks.
const weakSpares = true

func makeSpare(c *[arenaChunk]byte) spareChunk { return weak.Make(c) }
