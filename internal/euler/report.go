package euler

import (
	"time"

	"repro/internal/bsp"
)

// PartReport records one partition's activity at one level: the user-time
// split of Fig. 6, the complexity inputs of Fig. 7, the memory state of
// Fig. 8 and the vertex/edge composition of Fig. 9.
type PartReport struct {
	Level int
	Part  int // parent leaf ID naming the (merged) partition

	// User compute time split (Fig. 6).  The four terms are disjoint
	// slices of the worker's Compute call for this level, which runs
	// while the worker holds an engine slot; what they leave out is
	// sending the state on and absorbing the tour's results.  Time spent
	// waiting for a slot is in no term: it shows in the run's wall time
	// beyond the BSP critical path.
	//
	// CopySrc is deserialising the received parked batches, and the
	// child state when it arrives encoded from another engine instance (a
	// co-hosted child hands its state over by reference, at no cost).
	// CopySink is the merge's pass over the parent's own state (zero at
	// level 0).  CreateObj is building the partition object: at level 0,
	// decoding the leaf state only when the plan holds it encoded (a
	// cluster plan slice, a retained or replayed run, a spilled leaf);
	// above it, folding the child and the converted edges in; then Phase
	// 1's vertex index and CSR.  Phase1 is the tour itself.
	CopySrc   time.Duration
	CopySink  time.Duration
	CreateObj time.Duration
	Phase1    time.Duration

	Stats Phase1Stats // includes |B|, |I|, |L| for Fig. 7

	LongsAtStart int64 // in-memory state size when Phase 1 begins (Fig. 8; equals PartState.Longs)
	RemoteEdges  int64 // stored remote-edge copies (Fig. 9)
	StubGroups   int64 // stub entries carried (Sec. 5 modes)
}

// UserTime returns the total user compute time for the Fig. 5/6 split.
func (p PartReport) UserTime() time.Duration {
	return p.CopySrc + p.CopySink + p.CreateObj + p.Phase1
}

// LevelReport aggregates the partitions live at one level (Fig. 8).
type LevelReport struct {
	Level           int
	Active          int   // partitions that ran Phase 1 at this level
	Live            int   // partitions holding state (active + carried)
	CumulativeLongs int64 // Σ state size across live partitions
	AvgLongs        int64 // per-live-partition average
	ParkedLongs     int64 // remote edges parked on leaf hosts (ModeProposed)
}

// RunReport is the full instrumentation record of one distributed run.
type RunReport struct {
	Mode       Mode
	TreeHeight int
	Parts      []PartReport // ordered by (level, part)
	Levels     []LevelReport
	BSP        bsp.Metrics
	Wall       time.Duration // wall-clock time of the BSP run

	// Attempts is how many cluster execution attempts the run took
	// (1 = first try; >1 means retries with re-planning).  Zero for
	// single-process runs, which have no retry machinery.
	Attempts int `json:"attempts,omitempty"`
	// Degraded marks a run completed through the coordinator's
	// in-process fallback after the cluster could not serve it.
	Degraded bool `json:"degraded,omitempty"`
	// WireBytes is the total frame bytes the hub moved for the job
	// (hello through result, both directions, across every attempt).
	// Zero for single-process runs, which touch no wire.
	WireBytes int64 `json:"wire_bytes,omitempty"`
	// ReusedParts counts the merge-tree nodes replayed from a retained
	// base run instead of re-toured; zero for from-scratch runs.
	ReusedParts int `json:"reused_parts,omitempty"`
}

// PartsAt returns the part reports for one level.
func (r *RunReport) PartsAt(level int) []PartReport {
	var out []PartReport
	for _, p := range r.Parts {
		if p.Level == level {
			out = append(out, p)
		}
	}
	return out
}

// UserComputeTotal sums user compute time over all partitions and levels,
// the red line of Fig. 5.
func (r *RunReport) UserComputeTotal() time.Duration {
	var total time.Duration
	for _, p := range r.Parts {
		total += p.UserTime()
	}
	return total
}

// IdealSeries produces the paper's synthetic "ideal" memory line for
// Fig. 8: the average partition state stays at the level-0 average, and
// the cumulative is that average times the live partition count at each
// level.
func IdealSeries(levels []LevelReport) []LevelReport {
	if len(levels) == 0 {
		return nil
	}
	base := levels[0].AvgLongs
	out := make([]LevelReport, len(levels))
	for i, l := range levels {
		out[i] = LevelReport{
			Level:           l.Level,
			Active:          l.Active,
			Live:            l.Live,
			AvgLongs:        base,
			CumulativeLongs: base * int64(l.Live),
		}
	}
	return out
}
