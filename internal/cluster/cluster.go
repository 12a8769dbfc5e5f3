// Package cluster is declared only because benchmark/wl_mapbulk.go (frozen)
// names it: that workload builds a Cluster of one slot and hands it to
// engine.Options.Cluster to pin its single-threaded baseline to one task at
// a time. A Cluster schedules nothing — every stage runs on shard.Pool —
// and its one meaning is a task-pool size. Delete the package, with
// Options.Cluster, in the change that edits that benchmark line.
package cluster

// Config sizes a Cluster: Nodes × SlotsPerNode task slots, each at least 1.
type Config struct {
	Nodes        int
	SlotsPerNode int
}

// Cluster is a slot count.
type Cluster struct{ slots int }

// New returns a Cluster of cfg's size.
func New(cfg Config) *Cluster {
	return &Cluster{slots: max(cfg.Nodes, 1) * max(cfg.SlotsPerNode, 1)}
}

// Slots is the size of the task pool a query given this Cluster runs on.
func (c *Cluster) Slots() int { return c.slots }
