// Package cluster provides the building blocks of the self-healing xbar
// fleet: a consistent hash ring that shards the canonical spec-hash space
// across member instances, an active health checker with fail/recover
// thresholds that ejects and re-admits members, and a bounded
// exponential-backoff policy shared by the gateway's retry loop and the
// engine's follower pull loop.
//
// The package is deliberately free of engine dependencies so both sides of
// the wire — cmd/xbargateway fronting the fleet and internal/engine running
// inside a member — can build on it.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// DefaultVirtualNodes is the ring points placed per member when
// RingOptions.VirtualNodes is zero. More points smooth the key distribution
// across members at the cost of a larger (still tiny) sorted point table.
const DefaultVirtualNodes = 64

// Ring is an immutable consistent hash ring over member names (the gateway
// uses member base URLs). Keys map to the member owning the first ring
// point at or clockwise after the key's hash; the full preference order —
// the owner followed by each next distinct member clockwise — is what
// failover walks, so ejecting a member moves only that member's keys.
type Ring struct {
	members []string
	points  []ringPoint // sorted by hash
}

type ringPoint struct {
	hash   uint64
	member int // index into members
}

// NewRing builds a ring over the given members with vnodes points each
// (zero means DefaultVirtualNodes). Member order does not matter; the ring
// is fully determined by the member names.
func NewRing(members []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	r := &Ring{
		members: append([]string(nil), members...),
		points:  make([]ringPoint, 0, len(members)*vnodes),
	}
	// Sorting the member list first makes the ring independent of the
	// order the operator listed members in, so every gateway replica with
	// the same member set computes the same shards.
	sort.Strings(r.members)
	for m, name := range r.members {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash:   hashString(fmt.Sprintf("%s#%d", name, v)),
				member: m,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].member < r.points[j].member
	})
	return r
}

// Members returns the ring's member names, sorted.
func (r *Ring) Members() []string { return append([]string(nil), r.members...) }

// Owner returns the member owning key (the first preference), or "" for an
// empty ring.
func (r *Ring) Owner(key []byte) string {
	p := r.Prefs(key)
	if len(p) == 0 {
		return ""
	}
	return p[0]
}

// Prefs returns the key's full preference order: the owning member first,
// then each next distinct member walking the ring clockwise. A caller that
// finds the owner unhealthy retries down this list, so every key has a
// deterministic failover sequence that stays stable as other keys move.
func (r *Ring) Prefs(key []byte) []string {
	if len(r.members) == 0 {
		return nil
	}
	h := HashKey(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, len(r.members))
	seen := make(map[int]bool, len(r.members))
	for i := 0; i < len(r.points) && len(out) < len(r.members); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.member] {
			seen[p.member] = true
			out = append(out, r.members[p.member])
		}
	}
	return out
}

// HashKey maps an opaque key (the engine's canonical spec hash) onto the
// ring's 64-bit hash space: FNV-64a finished with the splitmix64
// finalizer. Bare FNV-64a keeps inputs that differ only in their trailing
// bytes — the ring points "url#0".."url#63", member URLs one port apart —
// clustered on the ring, so a few members owned most keys; the finalizer's
// avalanche spreads them.
func HashKey(key []byte) uint64 {
	h := fnv.New64a()
	h.Write(key)
	x := h.Sum64()
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

func hashString(s string) uint64 { return HashKey([]byte(s)) }
