package plane

import (
	"fmt"
	"sort"
)

// ring is a consistent-hash ring over the plane's active replicas.
// Shard keys (namespace or cluster-scoped kind, see routeKey) hash onto
// the ring and walk clockwise to the first virtual node; each replica
// contributes VirtualNodes points so removing a replica moves only the
// keys it owned, spread roughly evenly across the survivors — the
// "deterministic shard re-assignment on drain" contract. The ring is
// immutable once built: the control plane builds a fresh one under its
// lock and publishes it atomically to the data path.
type ring struct {
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash    uint64
	replica int
}

// buildRing places vnodes virtual nodes per replica. Replicas are the
// ACTIVE replica indices only — draining and down replicas own nothing.
func buildRing(replicas []int, vnodes int) *ring {
	if vnodes <= 0 {
		vnodes = defaultVirtualNodes
	}
	rg := &ring{points: make([]ringPoint, 0, len(replicas)*vnodes)}
	for _, idx := range replicas {
		for v := 0; v < vnodes; v++ {
			rg.points = append(rg.points, ringPoint{
				hash:    hashKey(fmt.Sprintf("replica-%d/vnode-%d", idx, v)),
				replica: idx,
			})
		}
	}
	sort.Slice(rg.points, func(i, j int) bool {
		if rg.points[i].hash != rg.points[j].hash {
			return rg.points[i].hash < rg.points[j].hash
		}
		// Identical 64-bit hashes are astronomically unlikely but must
		// still order deterministically across builds.
		return rg.points[i].replica < rg.points[j].replica
	})
	return rg
}

// lookup maps a shard key to its owning replica. ok is false when the
// ring is empty (every replica drained or down).
func (rg *ring) lookup(key string) (int, bool) { return rg.at(hashKey(key)) }

// at maps a shard key's hash to its owning replica.
func (rg *ring) at(h uint64) (int, bool) {
	if len(rg.points) == 0 {
		return 0, false
	}
	i := sort.Search(len(rg.points), func(i int) bool { return rg.points[i].hash >= h })
	if i == len(rg.points) {
		i = 0 // wrap: clockwise past the highest point lands on the first
	}
	return rg.points[i].replica, true
}

// hashKey hashes a shard key or virtual-node label onto the ring.
// Plain FNV-1a keeps near-identical strings ("…/vnode-17" vs
// "…/vnode-18") in one contiguous hash band, which would degenerate
// the ring into one giant arc per replica; the 64-bit avalanche
// finalizer spreads the bands so virtual nodes actually interleave.
// The data path hashes the key bytes it built without converting them.
func hashKey[K string | []byte](key K) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	x := uint64(offset64)
	for i := 0; i < len(key); i++ {
		x ^= uint64(key[i])
		x *= prime64
	}
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}
