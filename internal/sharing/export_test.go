package sharing

// PageMapAllocations reports how many regions' page-state cells d's
// page-state map has allocated.
func PageMapAllocations(d *Detector) uint64 { return d.pages.Allocations }
