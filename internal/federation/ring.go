// Package federation is the horizontal scale-out layer of schedd: a
// deterministic consistent-hash placement ring that maps every run id
// to exactly one owning host, and a thin pass-through router that
// fronts N service instances — in-process handles in direct mode,
// real HTTP targets in daemon mode — so aggregate poll throughput
// scales with hosts while clients keep speaking the single-host
// protocol to one address.
//
// Placement is a pure function of (host names, virtual-node count,
// epoch): no membership gossip, no state. Two routers configured with
// the same triple agree on every placement, across process restarts —
// which is also what lets the deterministic cluster harness pin an
// epoch and hash federated scenarios bit-for-bit. Stepping the epoch
// produces a fresh placement for the same host set; the router's
// SetEpoch migrates every run whose owner moved (snapshot-ship-replay
// via the service layer's transfer endpoints), and RecoverHost
// scavenges a crashed owner's runs from its journal directory into
// their new ring owners instead of declaring them lost.
package federation

import (
	"fmt"
	"sort"
)

// DefaultVnodes is the virtual-node count per host when Options leaves
// it 0: enough to keep the expected per-host load imbalance of a
// random id population in the few-percent range without making ring
// construction or the binary search noticeable.
const DefaultVnodes = 64

// Ring is a consistent-hash placement ring: run id → owning host
// index. Immutable after construction; Owner is safe for concurrent
// use and performs no allocations (one inline FNV pass over the id
// plus a binary search).
type Ring struct {
	hosts  []string
	vnodes int
	epoch  uint64
	// points are the sorted virtual-node positions; owner[i] is the
	// host index owning points[i].
	points []uint64
	owner  []int32
}

// NewRing builds the placement ring for the named hosts. vnodes ≤ 0
// selects DefaultVnodes. The epoch is mixed into every virtual-node
// position, so bumping it produces an entirely fresh placement for
// the same host set — the knob the cluster harness pins and a future
// migration protocol will step.
func NewRing(hosts []string, vnodes int, epoch uint64) (*Ring, error) {
	if len(hosts) == 0 {
		return nil, fmt.Errorf("federation: ring needs at least one host")
	}
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	seen := make(map[string]bool, len(hosts))
	for _, h := range hosts {
		if h == "" {
			return nil, fmt.Errorf("federation: empty host name")
		}
		if seen[h] {
			return nil, fmt.Errorf("federation: duplicate host name %q", h)
		}
		seen[h] = true
	}
	r := &Ring{
		hosts:  append([]string(nil), hosts...),
		vnodes: vnodes,
		epoch:  epoch,
		points: make([]uint64, 0, len(hosts)*vnodes),
		owner:  make([]int32, 0, len(hosts)*vnodes),
	}
	type point struct {
		pos  uint64
		host int32
	}
	pts := make([]point, 0, len(hosts)*vnodes)
	for hi, h := range hosts {
		base := fnvMix(fnvString(fnvOffset, h), epoch)
		for v := 0; v < vnodes; v++ {
			pts = append(pts, point{pos: mix64(fnvMix(base, uint64(v))), host: int32(hi)})
		}
	}
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].pos != pts[j].pos {
			return pts[i].pos < pts[j].pos
		}
		// A 64-bit collision between distinct (host, vnode) pairs is
		// astronomically unlikely; break it by host index so the ring
		// stays a pure function of its inputs regardless.
		return pts[i].host < pts[j].host
	})
	for _, p := range pts {
		r.points = append(r.points, p.pos)
		r.owner = append(r.owner, p.host)
	}
	return r, nil
}

// Owner returns the index (into Hosts) of the host owning id: the
// first virtual node clockwise of the id's hash point. Allocation-free.
func (r *Ring) Owner(id string) int {
	if len(r.hosts) == 1 {
		// Every point is the one host's: skip the hash (the cluster
		// harness routes every single-host poll through here).
		return 0
	}
	h := mix64(fnvString(fnvOffset, id))
	// First point strictly greater than h, wrapping to points[0] — the
	// open-addressing convention every consistent-hash ring uses.
	lo, hi := 0, len(r.points)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.points[mid] > h {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == len(r.points) {
		lo = 0
	}
	return int(r.owner[lo])
}

// OwnerLive returns the owner of id skipping the hosts whose bit is
// set in the down mask (bit i = host index i) — the placement a fleet
// converges on while a host is dead. It walks clockwise from the id's
// point, so only the dead hosts' runs land elsewhere; everything else
// keeps its Owner placement. Allocation-free. A mask downing every
// host falls back to plain Owner (routing somewhere beats routing
// nowhere, and the caller is about to get an unreachable-host error
// anyway).
func (r *Ring) OwnerLive(id string, down uint64) int {
	h := mix64(fnvString(fnvOffset, id))
	lo, hi := 0, len(r.points)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.points[mid] > h {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	for i := 0; i < len(r.points); i++ {
		p := lo + i
		if p >= len(r.points) {
			p -= len(r.points)
		}
		host := int(r.owner[p])
		if host >= 64 || down&(1<<uint(host)) == 0 {
			return host
		}
	}
	if lo == len(r.points) {
		lo = 0
	}
	return int(r.owner[lo])
}

// Hosts returns the ring's host names in construction order (the
// order Owner indexes).
func (r *Ring) Hosts() []string { return r.hosts }

// Vnodes returns the per-host virtual-node count.
func (r *Ring) Vnodes() int { return r.vnodes }

// Epoch returns the placement epoch the ring was built with.
func (r *Ring) Epoch() uint64 { return r.epoch }

// HostNames returns the canonical names for an n-host topology:
// "host-0" … "host-<n-1>". The cluster harness and the examples use
// them so a scenario's placement is reproducible from (n, vnodes,
// epoch) alone.
func HostNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("host-%d", i)
	}
	return names
}

// fnvOffset is the FNV-1a 64-bit offset basis.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// fnvString folds s into an FNV-1a state.
func fnvString(state uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		state ^= uint64(s[i])
		state *= fnvPrime
	}
	return state
}

// fnvMix folds a 64-bit value into an FNV-1a state byte by byte.
func fnvMix(state, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		state ^= uint64(byte(v >> (8 * i)))
		state *= fnvPrime
	}
	return state
}

// mix64 is the 64-bit avalanche finalizer (MurmurHash3's fmix64).
// Raw FNV over a small vnode counter leaves the high bits nearly
// affine in the counter, which turns every host's vnode set into a
// translate of one lattice and wrecks the load balance; the
// finalizer restores full-width diffusion.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}
