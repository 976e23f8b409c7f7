package cluster

import (
	"fmt"
	"strings"
)

// RenderDendrogram draws the top of the merge tree as indented text —
// the terminal analogue of Figure 1's dendrogram, with each inner node
// annotated "(Ward distance , cascades)" the way the paper labels them.
// maxDepth bounds how deep below the root the rendering descends; leaves
// and subtrees below the cut are summarized by their size.
func (d *Dendrogram) RenderDendrogram(maxDepth int) string {
	if len(d.Merges) == 0 {
		return "(single observation)\n"
	}
	if maxDepth < 1 {
		maxDepth = 1
	}
	// children[id] for merged clusters; id n+i is Merges[i].
	var b strings.Builder
	rootID := d.N + len(d.Merges) - 1
	var walk func(id, depth int)
	walk = func(id, depth int) {
		indent := strings.Repeat("  ", depth)
		if id < d.N {
			fmt.Fprintf(&b, "%s- leaf %d\n", indent, id)
			return
		}
		m := d.Merges[id-d.N]
		if depth >= maxDepth {
			fmt.Fprintf(&b, "%s- (%.1f , %d) ...\n", indent, m.Height, m.Size)
			return
		}
		fmt.Fprintf(&b, "%s- (%.1f , %d)\n", indent, m.Height, m.Size)
		walk(m.A, depth+1)
		walk(m.B, depth+1)
	}
	walk(rootID, 0)
	return b.String()
}
