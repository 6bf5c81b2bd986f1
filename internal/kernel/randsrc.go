package kernel

// math/rand's generator parameters (math/rand/rng.go): an additive lagged
// Fibonacci register of rngLen entries with a tap rngTap entries behind
// the feed, seeded from a Lehmer chain modulo int32max.
const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1
	lehmerA  = 48271
)

// rngJump[i] is lehmerA^(3i+21) mod int32max: the multiplier that takes
// the normalized seed x0 straight to x(3i+21), the first of the three
// chain values register entry i is built from.
var rngJump = func() (t [rngLen]uint64) {
	x := uint64(1)
	for range 21 {
		x = x * lehmerA % int32max
	}
	cube := uint64(lehmerA) * lehmerA % int32max * lehmerA % int32max
	for i := range t {
		t[i] = x
		x = x * cube % int32max
	}
	return t
}()

// lazySource yields exactly the stream of math/rand.NewSource(seed) but
// seeds in O(1). rngSource.Seed walks the Lehmer chain x(n+1) = lehmerA *
// x(n) mod int32max for 1,841 steps and fills all 607 register entries,
// entry i being (x(3i+21)<<40) ^ (x(3i+22)<<20) ^ x(3i+23) ^ rngCooked[i].
// Since x(n) = lehmerA^n * x0 mod int32max, rngJump computes any entry
// directly, so Seed only records x0 and each draw fills the entries it is
// about to read for the first time: tap's first pass covers entries
// 606..334 (draws 0..272), feed's covers 333..0 (draws 0..333), and from
// draw 334 on every entry read has been filled.
type lazySource struct {
	tap, feed int
	draws     int    // draws since Seed, counted up to rngLen-rngTap
	x0        uint64 // normalized seed, 1 <= x0 < int32max
	vec       [rngLen]int64
}

// Seed implements rand.Source, normalizing seed as rngSource.Seed does.
func (s *lazySource) Seed(seed int64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x0 = uint64(seed)
	s.tap, s.feed, s.draws = 0, rngLen-rngTap, 0
}

// fill computes register entry i as rngSource.Seed would have.
func (s *lazySource) fill(i int) {
	x := rngJump[i] * s.x0 % int32max
	u := int64(x) << 40
	x = x * lehmerA % int32max
	u ^= int64(x) << 20
	x = x * lehmerA % int32max
	s.vec[i] = u ^ int64(x) ^ rngCooked[i]
}

// Int63 implements rand.Source.
func (s *lazySource) Int63() int64 { return int64(s.Uint64() & rngMask) }

// Uint64 implements rand.Source64: rngSource.Uint64 plus first-pass fills.
func (s *lazySource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	if s.draws < rngLen-rngTap {
		if s.draws < rngTap {
			s.fill(s.tap)
		}
		s.fill(s.feed)
		s.draws++
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}
