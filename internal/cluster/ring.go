// Package cluster turns a static set of tlrserve processes into one
// digest-addressed trace and result fabric.  A consistent-hash ring
// places every sha256 content digest on a replication-factor-sized
// owner subset of the peers; the Fabric wraps the ring with the HTTP
// mechanics a node needs to take part: fetching a missing trace from
// its owners (streamed, in the version-5 download format),
// replicating a freshly uploaded trace to the other owners with
// bounded retry and backoff, routing a digest-referenced run to a node
// that already holds the trace, and tracking per-peer health so dead
// peers are skipped rather than waited on.
//
// The package is deliberately transport-thin: it never decodes trace
// containers (the service layer validates every fetched byte before
// caching) and never inspects simulation requests (cmd/tlrserve
// decides what to forward).  Peers are configured statically and
// identified by their base URLs; membership changes are a restart with
// a new -peers list, which content addressing makes safe — a digest
// resolves identically everywhere it is held.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"strconv"
)

// vnodesPerPeer is the number of ring points each peer contributes.
// More points smooth the key distribution across peers; 128 keeps the
// per-peer share within a few percent of uniform for small static
// peer sets while the full ring stays a few KiB.
const vnodesPerPeer = 128

// Ring is a consistent-hash ring over a static peer set.  It is
// immutable after construction and safe for concurrent use.
type Ring struct {
	peers  []string
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash uint64
	peer int // index into peers
}

// NewRing builds a ring over the given peers (base URLs; order does
// not affect placement — points come from hashing, so every node
// configured with the same set computes the same owners regardless of
// how its -peers flag was ordered).  Duplicate peers are rejected: a
// peer listed twice would silently double its share.
func NewRing(peers []string) (*Ring, error) {
	if len(peers) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one peer")
	}
	seen := make(map[string]bool, len(peers))
	for _, p := range peers {
		if p == "" {
			return nil, fmt.Errorf("cluster: empty peer URL")
		}
		if seen[p] {
			return nil, fmt.Errorf("cluster: duplicate peer %q", p)
		}
		seen[p] = true
	}
	r := &Ring{
		peers:  append([]string(nil), peers...),
		points: make([]ringPoint, 0, len(peers)*vnodesPerPeer),
	}
	for i, p := range r.peers {
		for v := 0; v < vnodesPerPeer; v++ {
			r.points = append(r.points, ringPoint{
				hash: ringHash(p + "#" + strconv.Itoa(v)),
				peer: i,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Tie-break on peer index so placement stays deterministic even
		// in the astronomically unlikely event of a 64-bit collision.
		return r.points[i].peer < r.points[j].peer
	})
	return r, nil
}

// Peers returns the configured peer set, in configuration order.
func (r *Ring) Peers() []string { return append([]string(nil), r.peers...) }

// Owners returns the n distinct peers owning key, in ring order
// starting at the key's position (the first entry is the primary
// owner, the rest its replicas).  n is clamped to the peer count.
func (r *Ring) Owners(key string, n int) []string {
	if n <= 0 {
		n = 1
	}
	if n > len(r.peers) {
		n = len(r.peers)
	}
	h := ringHash(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, n)
	taken := make(map[int]bool, n)
	for i := 0; len(out) < n && i < len(r.points); i++ {
		pt := r.points[(start+i)%len(r.points)]
		if !taken[pt.peer] {
			taken[pt.peer] = true
			out = append(out, r.peers[pt.peer])
		}
	}
	return out
}

// ringHash maps a string to its ring position.  sha256 rather than a
// cheap mixer: digests placed on the ring name artifacts served to
// arbitrary clients, so placement must be collision-resistant, and the
// ring is built once per process.
func ringHash(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}
