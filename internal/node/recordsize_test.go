package node_test

import (
	"math"
	"testing"

	"dedisys/internal/node"
	"dedisys/internal/object"
	"dedisys/internal/replication"
)

// TestQuorumWriteStoresSmallRecords: one quorum write of the benchmark's
// register ({"value": int64}, three replicas) stores one record per replica,
// and persistence.bytes, the bytes the store writes, shows each record at
// most 64 B: 49 B, where the same record was 128 B as JSON. The value is the
// largest int64, whose varint is the longest.
func TestQuorumWriteStoresSmallRecords(t *testing.T) {
	c := newRegCluster(t, 3, func(o *node.Options) { o.Protocol = replication.Quorum{} })
	defer c.Stop()
	n1 := c.Node(0)
	if err := n1.Create("Reg", "o00001", object.State{"value": int64(0)}, c.AllReplicas("n1")); err != nil {
		t.Fatal(err)
	}
	n1.Repl.WaitPropagation()
	read := func(n *node.Node, name string) int64 {
		return c.Obs.Snapshot().Counters[string(n.ID)+"."+name]
	}
	bytes, records := map[*node.Node]int64{}, map[*node.Node]int64{}
	for _, n := range c.Nodes {
		bytes[n], records[n] = read(n, "persistence.bytes"), read(n, "persistence.records")
	}
	setValue(t, n1, "o00001", math.MaxInt64)
	n1.Repl.WaitPropagation()
	for _, n := range c.Nodes {
		b, r := read(n, "persistence.bytes")-bytes[n], read(n, "persistence.records")-records[n]
		if r != 1 || b <= 0 || b > 64 {
			t.Errorf("%s stored %d records in %d bytes; want one record of at most 64", n.ID, r, b)
		}
		t.Logf("%s: %d B", n.ID, b)
	}
}
