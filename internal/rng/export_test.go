package rng

// Perm returns a pseudo-random permutation of [0, n).
func (p *PCG) Perm(n int) []int {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	p.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	return perm
}
