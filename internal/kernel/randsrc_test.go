package kernel

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestRandomMatchesMathRand pins the random policy's contract: Pick is
// math/rand.NewSource(seed)'s Intn stream draw for draw, Seed restarts
// it exactly however far the previous seed's stream got, and reseeding
// plus picking allocates nothing.
func TestRandomMatchesMathRand(t *testing.T) {
	const draws = 2000
	ready := make([]*Proc, 37)
	// checkStream compares the next draws picks of p, over ready sets of
	// size 1..37, with a fresh math/rand generator seeded with seed.
	checkStream := func(p *RandomPolicy, seed int64, what string) {
		t.Helper()
		want := rand.New(rand.NewSource(seed))
		for i := 0; i < draws; i++ {
			n := 1 + i%len(ready)
			if got, exp := p.Pick(ready[:n]), want.Intn(n); got != exp {
				t.Fatalf("%s: seed %d draw %d: Pick over %d = %d, math/rand Intn = %d", what, seed, i, n, got, exp)
			}
		}
	}

	seeds := []int64{
		0, 1, 150, -1, -7,
		int32max, int32max + 1, 2 * int32max, 89482311,
		math.MaxInt64, math.MinInt64, math.MinInt64 + 1,
	}
	gen := rand.New(rand.NewSource(1979))
	for range 200 {
		seeds = append(seeds, int64(gen.Uint64()))
	}
	for _, seed := range seeds {
		checkStream(Random(seed), seed, "Random")

		// The raw 64-bit stream too: Intn reads only the top bits.
		var src lazySource
		src.Seed(seed)
		ref := rand.NewSource(seed).(rand.Source64)
		for i := 0; i < draws; i++ {
			if got, exp := src.Uint64(), ref.Uint64(); got != exp {
				t.Fatalf("seed %d draw %d: Uint64 = %#x, math/rand = %#x", seed, i, got, exp)
			}
		}
	}

	// Reseeding after k draws must restart the stream, including when k
	// stops inside or just past either first-pass fill window.
	p := Random(0)
	for _, k := range []int{0, 1, 272, 273, 333, 334, 606, 607, 1500} {
		for _, pair := range [][2]int64{{1, 2}, {-7, -7}, {math.MinInt64, 150}} {
			p.Seed(pair[0])
			for i := 0; i < k; i++ {
				p.Pick(ready[:1+i%len(ready)])
			}
			p.Seed(pair[1])
			checkStream(p, pair[1], fmt.Sprintf("reseeded after %d draws", k))
		}
	}

	allocs := testing.AllocsPerRun(100, func() {
		p.Seed(42)
		for i := 0; i < 64; i++ {
			p.Pick(ready[:1+i%len(ready)])
		}
	})
	if allocs != 0 {
		t.Fatalf("Seed plus 64 Picks allocates %v times, want 0", allocs)
	}
}

var pickSink int

// BenchmarkRandomPolicy measures what the random phase pays per seed
// outside the run itself: reseeding one policy, then 64 picks over small
// ready sets. Run with -benchmem; steady state allocates nothing.
func BenchmarkRandomPolicy(b *testing.B) {
	p := Random(0)
	ready := make([]*Proc, 5)
	sum := 0
	for i := 0; i < b.N; i++ {
		p.Seed(int64(i) + 1)
		for j := 0; j < 64; j++ {
			sum += p.Pick(ready[:1+j%len(ready)])
		}
	}
	pickSink = sum
}
