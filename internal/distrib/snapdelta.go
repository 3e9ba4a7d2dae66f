package distrib

import (
	"fmt"
	"sync"

	"repro/internal/core"
)

// Delta snapshot support for epoch-barrier state handoff (DESIGN.md
// §12). Both ends of a handoff remember, per vertex, the last full
// snapshot they are known to share: the sender because it shipped (or
// reconstructed) it, the receiver because it restored it. Against that
// converged base a core.DeltaSnapshotter module ships only what
// changed since the previous barrier — for window-backed modules most
// of the ring — and the receiver advances its cached base by
// re-serializing after the apply, which the DeltaSnapshotter contract
// guarantees is bit-identical to the full snapshot the sender held.
// Everything falls back to full snapshots transparently: modules
// without delta support, vertices without a converged base (first
// move, or a move to a third machine), unprofitable deltas, and every
// path after a crash recovery (the caches are cleared on reset and
// restore, so a rolled-back flock re-converges from fulls). WAL
// checkpoints never use deltas — recovery always restores from
// self-contained full snapshots.

// snapCache holds the per-vertex converged base snapshots for one
// participant.
type snapCache struct {
	mu      sync.Mutex
	entries map[int]snapEntry
}

type snapEntry struct {
	full []byte
	hash uint64
	peer int // machine known to hold the same base
}

func newSnapCache() *snapCache { return &snapCache{entries: map[int]snapEntry{}} }

// lookup returns the cached base for a vertex when it is converged
// with the given peer.
func (c *snapCache) lookup(vertex, peer int) (snapEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[vertex]
	if !ok || e.peer != peer {
		return snapEntry{}, false
	}
	return e, true
}

// store records a new converged base for a vertex.
func (c *snapCache) store(vertex, peer int, full []byte) {
	c.mu.Lock()
	c.entries[vertex] = snapEntry{full: full, hash: hashState(full), peer: peer}
	c.mu.Unlock()
}

// clear drops every cached base. Called on crash recovery (reset and
// restore): a rolled-back flock holds checkpoint state, not the bases
// the caches describe.
func (c *snapCache) clear() {
	c.mu.Lock()
	c.entries = map[int]snapEntry{}
	c.mu.Unlock()
}

// hashState is FNV-1a over a full snapshot — the base identity a delta
// frame names so the receiver can verify it holds the exact base the
// delta was built against.
func hashState(b []byte) uint64 {
	const offset, prime = uint64(14695981039346656037), uint64(1099511628211)
	h := offset
	for _, c := range b {
		h ^= uint64(c)
		h *= prime
	}
	return h
}

// encodeSnap builds the handoff snapshot for one leaving vertex bound
// for machine peer: a delta against the peer-converged base when the
// module supports it and the delta is smaller, the full snapshot
// otherwise. For modules with delta support the full state becomes the
// cached base converged with peer — each worker keeps its own cache,
// so the sender's can advance as soon as the snapshot is built.
func encodeSnap(mod core.Module, vertex, peer int, cache *snapCache) (core.VertexSnapshot, error) {
	ss, ok := mod.(core.Snapshotter)
	if !ok {
		return core.VertexSnapshot{}, fmt.Errorf("distrib: vertex %d: module does not snapshot", vertex)
	}
	full, err := ss.SnapshotState()
	if err != nil {
		return core.VertexSnapshot{}, fmt.Errorf("distrib: vertex %d: snapshot: %w", vertex, err)
	}
	snap := core.VertexSnapshot{Vertex: vertex, State: full}
	ds, isDelta := mod.(core.DeltaSnapshotter)
	if !isDelta {
		return snap, nil
	}
	if e, ok := cache.lookup(vertex, peer); ok {
		// An error or ok=false from AppendDelta just means no delta
		// exists; the full snapshot is always valid.
		if delta, dok, derr := ds.AppendDelta(nil, e.full); derr == nil && dok && len(delta) < len(full) {
			snap.State = delta
			snap.Delta = true
			snap.BaseHash = e.hash
		}
	}
	cache.store(vertex, peer, full)
	return snap, nil
}

// applySnap restores one arriving snapshot into its module. A delta
// snapshot requires the converged base the sender named — a missing or
// mismatched base is a hard protocol error, never a silent skip — and
// advances the cache by re-serializing the applied state. A full
// snapshot restores directly and becomes the new base for modules with
// delta support.
func applySnap(mod core.Module, snap core.VertexSnapshot, from int, cache *snapCache) error {
	ss, ok := mod.(core.Snapshotter)
	if !ok {
		return fmt.Errorf("distrib: vertex %d: snapshot arrived for a module that does not snapshot", snap.Vertex)
	}
	if snap.Delta {
		ds, ok := mod.(core.DeltaSnapshotter)
		if !ok {
			return fmt.Errorf("distrib: vertex %d: delta snapshot for a module without delta support", snap.Vertex)
		}
		e, found := cache.lookup(snap.Vertex, from)
		if !found || e.hash != snap.BaseHash {
			return fmt.Errorf("distrib: vertex %d: delta snapshot against base %#x which this end does not hold", snap.Vertex, snap.BaseHash)
		}
		if err := ds.ApplyDelta(e.full, snap.State); err != nil {
			return fmt.Errorf("distrib: vertex %d: applying delta snapshot: %w", snap.Vertex, err)
		}
		full, err := ds.SnapshotState()
		if err != nil {
			return fmt.Errorf("distrib: vertex %d: re-serializing applied delta: %w", snap.Vertex, err)
		}
		cache.store(snap.Vertex, from, full)
		return nil
	}
	if err := ss.RestoreState(snap.State); err != nil {
		return fmt.Errorf("distrib: vertex %d: restoring state: %w", snap.Vertex, err)
	}
	if _, ok := mod.(core.DeltaSnapshotter); ok {
		cache.store(snap.Vertex, from, snap.State)
	}
	return nil
}
