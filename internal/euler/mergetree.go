package euler

import (
	"fmt"
	"sort"
	"strings"
)

// MergePair is one merge of the tree: the partition group represented by
// Child is merged into the group represented by Parent.  Following the
// paper, the parent is the member with the larger leaf ID.
type MergePair struct {
	Child, Parent int
}

// MergeTree is the static merge schedule of Alg. 2: Levels[l] lists the
// merges performed between supersteps l and l+1.  Group representatives
// are leaf partition IDs throughout, so a merged partition is named by the
// leaf that survives as its parent (P2, P4, ... in the paper's Fig. 2).
type MergeTree struct {
	NumLeaves int
	Levels    [][]MergePair
	// repAt[l][leaf] is the leaf's group representative at the start of
	// level l, for l in [0, Height]; repAt[Height] is the root for all.
	repAt [][]int
	// convertLevel[a][b] is the level at which leaves a and b's groups
	// merge; -1 on the diagonal.
	convertLevel [][]int32
}

// BuildMergeTree constructs the merge schedule from the meta-graph using
// the given matching strategy (GreedyMaxWeight reproduces the paper).
func BuildMergeTree(meta *MetaGraph, strat MatchStrategy) *MergeTree {
	n := meta.N
	t := &MergeTree{NumLeaves: n}
	t.convertLevel = make([][]int32, n)
	for i := range t.convertLevel {
		t.convertLevel[i] = make([]int32, n)
		for j := range t.convertLevel[i] {
			t.convertLevel[i][j] = -1
		}
	}

	// Current grouping: rep per leaf, members per rep, inter-group weights.
	rep := make([]int, n)
	members := make(map[int][]int, n)
	for i := 0; i < n; i++ {
		rep[i] = i
		members[i] = []int{i}
	}
	weight := func(a, b int) int64 {
		var w int64
		for _, la := range members[a] {
			for _, lb := range members[b] {
				w += meta.Weight(la, lb)
			}
		}
		return w
	}

	snapshotReps := func() {
		row := make([]int, n)
		copy(row, rep)
		t.repAt = append(t.repAt, row)
	}
	snapshotReps()

	for level := 0; len(members) > 1; level++ {
		active := make([]int, 0, len(members))
		for r := range members {
			active = append(active, r)
		}
		sort.Ints(active)
		pairs := strat(active, weight)
		if len(pairs) == 0 {
			// A degenerate strategy returned nothing; force progress by
			// pairing the two smallest groups.
			pairs = [][2]int{{active[0], active[1]}}
		}
		var lvl []MergePair
		for _, p := range pairs {
			a, b := p[0], p[1]
			parent, child := a, b
			if b > a {
				parent, child = b, a
			}
			for _, la := range members[a] {
				for _, lb := range members[b] {
					t.convertLevel[la][lb] = int32(level)
					t.convertLevel[lb][la] = int32(level)
				}
			}
			members[parent] = append(members[parent], members[child]...)
			sort.Ints(members[parent])
			delete(members, child)
			for _, leaf := range members[parent] {
				rep[leaf] = parent
			}
			lvl = append(lvl, MergePair{Child: child, Parent: parent})
		}
		sort.Slice(lvl, func(i, j int) bool { return lvl[i].Parent < lvl[j].Parent })
		t.Levels = append(t.Levels, lvl)
		snapshotReps()
	}
	return t
}

// Height returns the number of merge levels; the BSP run takes Height+1
// supersteps, matching the paper's dlog(n)e+1 coordination complexity.
func (t *MergeTree) Height() int { return len(t.Levels) }

// Root returns the representative of the final merged partition.
func (t *MergeTree) Root() int { return t.repAt[len(t.repAt)-1][0] }

// RepAt returns leaf's group representative at the start of level l
// (l == Height gives the root).
func (t *MergeTree) RepAt(l, leaf int) int { return t.repAt[l][leaf] }

// ConvertLevel returns the level at which the groups of leaves a and b
// merge, i.e. the level at which an (a,b) cut edge becomes local.
func (t *MergeTree) ConvertLevel(a, b int) int32 {
	if a == b {
		panic(fmt.Sprintf("euler: ConvertLevel(%d,%d) of same leaf", a, b))
	}
	return t.convertLevel[a][b]
}

// String renders the tree level by level (the paper's Fig. 2).
func (t *MergeTree) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "merge tree: %d leaves, height %d\n", t.NumLeaves, t.Height())
	for l, pairs := range t.Levels {
		fmt.Fprintf(&b, "  L%d:", l)
		for _, p := range pairs {
			fmt.Fprintf(&b, " P%d+P%d->P%d", p.Child, p.Parent, p.Parent)
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}
