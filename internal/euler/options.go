package euler

import "fmt"

// Run policy applied by Solve's partition stage, so a spec that relies on
// defaults resolves identically from every entry point — the facade, a
// served job, a cluster run — or their byte-identical guarantee breaks.

// DefaultParts is the partition count applied when a caller passes zero.
const DefaultParts = 4

// DefaultSeed is the partitioner seed applied when a caller passes zero.
const DefaultSeed = 1

// SpillLogName is the spill store's filename inside a run directory.
const SpillLogName = "euler-spill.log"

// ResolveParts applies the job-spec partition policy: zero (unset in a
// spec) means DefaultParts; the rest is ClampParts.
func ResolveParts(parts int32, numVertices int64) (int32, error) {
	if parts == 0 {
		parts = DefaultParts
	}
	return ClampParts(parts, numVertices)
}

// ClampParts rejects non-positive counts (the facade treats an explicit
// zero as invalid, unlike a spec's unset zero) and clamps to the vertex
// count.
func ClampParts(parts int32, numVertices int64) (int32, error) {
	if parts < 1 {
		return 0, fmt.Errorf("euler: partition count %d < 1", parts)
	}
	if int64(parts) > numVertices {
		parts = int32(numVertices)
	}
	return parts, nil
}

// ResolveSeed applies the partitioner-seed default.
func ResolveSeed(seed int64) int64 {
	if seed == 0 {
		return DefaultSeed
	}
	return seed
}
