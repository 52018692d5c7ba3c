package eg

import (
	"fmt"
	"io"
	"strings"
)

// WriteDot renders the graph in Graphviz DOT format: one cluster per
// thread with program order top-to-bottom, green reads-from edges, blue
// coherence edges between consecutive writes, and dashed dependency
// edges. locName, when non-nil, supplies printable location names.
func (g *Graph) WriteDot(w io.Writer, locName func(Loc) string) error {
	name := func(l Loc) string {
		if locName != nil {
			return locName(l)
		}
		return fmt.Sprintf("x%d", l)
	}
	node := func(id EvID) string {
		if id.IsInit() {
			return fmt.Sprintf("init%d", id.I)
		}
		return fmt.Sprintf("t%d_%d", id.T, id.I)
	}
	label := func(ev Event) string {
		switch ev.Kind {
		case KInit:
			return fmt.Sprintf("init %s=0", name(ev.Loc))
		case KRead:
			v, _ := g.ReadValue(ev.ID)
			return fmt.Sprintf("R %s = %d", name(ev.Loc), v)
		case KWrite:
			return fmt.Sprintf("W %s = %d", name(ev.Loc), ev.Val)
		case KUpdate:
			v, _ := g.ReadValue(ev.ID)
			return fmt.Sprintf("U %s: %d -> %d", name(ev.Loc), v, ev.Val)
		case KFence:
			return "F." + ev.Fence.String()
		}
		return "?"
	}

	var sb strings.Builder
	sb.WriteString("digraph execution {\n  rankdir=TB;\n  node [shape=box, fontname=\"monospace\"];\n")

	// Init events, only those actually read from (less clutter).
	for l := 0; l < g.numLocs; l++ {
		id := InitID(Loc(l))
		if g.HasReaders(id) || len(g.co[l]) > 0 {
			fmt.Fprintf(&sb, "  %s [label=%q, style=dotted];\n", node(id), label(g.Event(id)))
		}
	}

	for t, th := range g.threads {
		fmt.Fprintf(&sb, "  subgraph cluster_t%d {\n    label=\"thread %d\";\n", t, t)
		for _, ev := range th {
			fmt.Fprintf(&sb, "    %s [label=%q];\n", node(ev.ID), label(ev))
		}
		// po edges (immediate successors).
		for i := 1; i < len(th); i++ {
			fmt.Fprintf(&sb, "    %s -> %s [color=gray];\n", node(th[i-1].ID), node(th[i].ID))
		}
		sb.WriteString("  }\n")
	}

	// rf edges, in reader (thread, index) order.
	g.ForEach(func(ev *Event) {
		if w, ok := g.RF(ev.ID); ok {
			fmt.Fprintf(&sb, "  %s -> %s [color=darkgreen, label=rf, fontcolor=darkgreen];\n",
				node(w), node(ev.ID))
		}
	})

	// co edges between consecutive writes (including init).
	for l := 0; l < g.numLocs; l++ {
		ws := g.WritesTo(Loc(l))
		for i := 1; i < len(ws); i++ {
			fmt.Fprintf(&sb, "  %s -> %s [color=blue, label=co, fontcolor=blue];\n",
				node(ws[i-1]), node(ws[i]))
		}
	}

	// Dependency edges (fixed kind order keeps output deterministic).
	g.ForEach(func(ev *Event) {
		for _, dk := range []struct {
			kind string
			set  []EvID
		}{{"addr", ev.Addr}, {"data", ev.Data}, {"ctrl", ev.Ctrl}} {
			for _, d := range dk.set {
				fmt.Fprintf(&sb, "  %s -> %s [style=dashed, label=%s];\n", node(d), node(ev.ID), dk.kind)
			}
		}
	})

	sb.WriteString("}\n")
	_, err := io.WriteString(w, sb.String())
	return err
}
