package cc

import (
	"fmt"
	"testing"
)

// BenchmarkRoute measures the Lenzen relay on an admissible all-to-many
// instance: every node sends one packet to each of 32 destinations.
func BenchmarkRoute(b *testing.B) {
	for _, n := range []int{64, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			payload := []int64{1, 2}
			pkts := make([]Packet, 0, 32*n)
			for s := 0; s < n; s++ {
				for k := 0; k < 32; k++ {
					pkts = append(pkts, Packet{Src: s, Dst: (s + 1 + k) % n, Data: payload})
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := Route(n, pkts, nil, ""); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRouteBatched measures the batching wrapper on an inadmissible
// instance (one hot source) that splits into several Route batches.
func BenchmarkRouteBatched(b *testing.B) {
	const n = 128
	payload := []int64{3}
	pkts := make([]Packet, 0, 4*n)
	for k := 0; k < 4*n; k++ {
		pkts = append(pkts, Packet{Src: 0, Dst: 1 + k%(n-1), Data: payload})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := RouteBatched(n, pkts, nil, ""); err != nil {
			b.Fatal(err)
		}
	}
}
