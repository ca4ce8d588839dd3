package bench

import (
	"testing"

	"dedisys/internal/constraint"
	"dedisys/internal/object"
)

// BenchmarkInvokeRead measures one read invocation (Value) through the full
// single-node middleware stack.
func BenchmarkInvokeRead(b *testing.B) {
	benchHotPath(b, "Value", func(i int) []any { return nil })
}

// BenchmarkInvokeWrite measures one write invocation (SetValue) including
// commit staging and CMP persistence on a single node.
func BenchmarkInvokeWrite(b *testing.B) {
	benchHotPath(b, "SetValue", func(i int) []any { return []any{int64(i)} })
}

func benchHotPath(b *testing.B, method string, args func(i int) []any) {
	b.ReportAllocs()
	cfg := QuickConfig()
	c, err := newBenchCluster(cfg, clusterOpts{size: 1}, constraint.AsyncInvariant)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Stop()
	n := c.Node(0)
	if err := n.Create(beanClass, "hot000", object.State{"value": int64(0)}, c.AllReplicas(n.ID)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := n.Invoke("hot000", method, args(i)...); err != nil {
			b.Fatal(err)
		}
	}
}
