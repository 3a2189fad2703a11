package rstar

import "walrus/internal/obs"

// treeMetrics are one Tree's pre-resolved obs handles. The handle pointer
// lives in an atomic so concurrent Search calls can read it without a
// lock; a nil pointer means observability is off and the query path does
// no metric work and no clock reads.
type treeMetrics struct {
	searches, nodeVisits, inserts, splits *obs.Counter
	reg                                   *obs.Registry
}

// SetMetrics publishes the tree's counters into reg under the
// walrus_rstar_* namespace; nil detaches. Safe to call concurrently with
// Search.
func (t *Tree) SetMetrics(reg *obs.Registry) {
	if vs := t.Versioned(); vs != nil {
		vs.setMetrics(reg)
	}
	if reg == nil {
		t.om.Store(nil)
		return
	}
	t.om.Store(&treeMetrics{
		reg:        reg,
		searches:   reg.Counter("walrus_rstar_searches_total", "R*-tree search descents (one answers all the probes of a query)."),
		nodeVisits: reg.Counter("walrus_rstar_node_visits_total", "Nodes visited by R*-tree search descents."),
		inserts:    reg.Counter("walrus_rstar_inserts_total", "Entries inserted into the R*-tree."),
		splits:     reg.Counter("walrus_rstar_splits_total", "R*-tree node splits."),
	})
}
