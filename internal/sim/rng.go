package sim

// RNG is a small, fast, deterministic random number generator
// (splitmix64). Every stochastic element of the simulation draws from an
// explicitly seeded RNG so that runs are reproducible; nothing in this
// module uses math/rand's global state.
type RNG struct {
	s uint64
}

// NewRNG returns a generator seeded with seed. Distinct seeds give
// independent streams for practical purposes.
func NewRNG(seed uint64) *RNG {
	// Avoid the all-zero state producing a weak first value by mixing the
	// seed through one splitmix round up front.
	r := &RNG{s: seed + 0x9e3779b97f4a7c15}
	r.Uint64()
	return r
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a uniform int64 in [0, n). It panics if n <= 0.
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("sim: Int63n with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// Uint64n returns a uniform uint64 in [0, n). It panics if n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("sim: Uint64n with zero n")
	}
	return r.Uint64() % n
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.Float64() < p }

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Fork derives an independent generator from this one, for handing a
// private stream to a subcomponent without coupling their sequences.
func (r *RNG) Fork() *RNG { return NewRNG(r.Uint64()) }

// Zipf draws from a bounded Zipf-like distribution over [0, n) with
// exponent theta in (0, 1), using the rejection-inversion-free
// approximation common in YCSB-style workload generators. theta == 0
// degenerates to uniform.
type Zipf struct {
	rng   *RNG
	n     int
	theta float64
	alpha float64
	zetan float64
	eta   float64
}

// NewZipf returns a Zipf sampler over [0, n).
func NewZipf(rng *RNG, n int, theta float64) *Zipf {
	if n <= 0 {
		panic("sim: Zipf with non-positive n")
	}
	z := &Zipf{rng: rng, n: n, theta: theta}
	if theta <= 0 {
		return z
	}
	z.zetan = zeta(n, theta)
	z.alpha = 1.0 / (1.0 - theta)
	z.eta = (1 - pow(2.0/float64(n), 1-theta)) / (1 - zeta(2, theta)/z.zetan)
	return z
}

func zeta(n int, theta float64) float64 {
	sum := 0.0
	for i := 1; i <= n; i++ {
		sum += 1.0 / pow(float64(i), theta)
	}
	return sum
}

// pow is a minimal x**y for positive x, avoiding a math import dependence
// being spread around callers. (math is stdlib; this simply keeps the
// sampler self-contained and branch-free for the hot path.)
func pow(x, y float64) float64 {
	if x <= 0 {
		return 0
	}
	return exp(y * ln(x))
}

// exp/ln use the stdlib; thin wrappers keep call sites short.
func exp(x float64) float64 { return mathExp(x) }
func ln(x float64) float64  { return mathLog(x) }

// Next draws the next sample in [0, n).
func (z *Zipf) Next() int {
	if z.theta <= 0 {
		return z.rng.Intn(z.n)
	}
	u := z.rng.Float64()
	uz := u * z.zetan
	if uz < 1.0 {
		return 0
	}
	if uz < 1.0+pow(0.5, z.theta) {
		return 1
	}
	return int(float64(z.n) * pow(z.eta*u-z.eta+1, z.alpha))
}
