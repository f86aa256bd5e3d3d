package metrics

import "testing"

// BenchmarkRegistryLookup measures resolving an existing instrument by
// identity — the cost every call site that has not hoisted its handle
// pays per event: one uncontended mutex and one map probe. The lookup
// must be allocation free (the label key is rendered into a stack
// buffer), which TestLookupZeroAlloc pins.
func BenchmarkRegistryLookup(b *testing.B) {
	warm := func() *Registry {
		r := NewRegistry()
		// Create the instruments and warm the call path before
		// measurement starts.
		for i := 0; i < 512; i++ {
			r.Counter("fabric", "bytes", L("scope", "remote"))
			r.Histogram("link", "queue_wait", L("link", "node3-eg"))
		}
		return r
	}
	b.Run("counter", func(b *testing.B) {
		r := warm()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.Counter("fabric", "bytes", L("scope", "remote"))
		}
	})
	b.Run("histogram", func(b *testing.B) {
		r := warm()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.Histogram("link", "queue_wait", L("link", "node3-eg"))
		}
	})
	b.Run("counter-parallel", func(b *testing.B) {
		r := warm()
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				r.Counter("fabric", "bytes", L("scope", "remote"))
			}
		})
	})
}
