package paged

// KeySlot returns the chunk-cache slot of key's chunk.
func KeySlot(key uint64) uint64 { return slotOf(key >> chunkBits) }
