package comm

import (
	"fmt"
	"sort"

	"repro/internal/machine"
)

// Warm-state forking support: a Network's cross-job state captured at a
// quiescent instant (no message in flight anywhere) and re-installed into a
// freshly constructed, structurally identical Network.
//
// The state is deliberately small. Everything transient — router queues,
// mailbox contents, retry timers, reserved buffers — is empty at quiescence
// by definition, so what remains is counters (which future output folds in),
// the mailbox address allocator (which decides future Addr values), the
// reliable-delivery uid allocator, and which physical links are down.

// State is the serializable cross-job state of one partition network.
type State struct {
	Stats Stats `json:"stats"`
	// NextBox is the per-local-node mailbox address allocator; restoring it
	// keeps future mailbox Addrs identical to the donor's.
	NextBox []int `json:"next_box"`
	// NextUID is the reliable-delivery uid allocator.
	NextUID int64 `json:"next_uid"`
	// DownLinks lists currently failed physical links as global endpoint
	// pairs (lower id first), sorted.
	DownLinks [][2]int `json:"down_links,omitempty"`
	// Links holds per-direction half-link statistics in the network's
	// deterministic link order (sorted local pairs, lower-endpoint direction
	// first). Per direction, not aggregated: MaxLinkBusy downstream is a max
	// over directions.
	Links []machine.LinkStats `json:"links"`
}

// Quiet reports whether the network holds no transient state: no outstanding
// reliable deliveries, no queued router work, and no undelivered mailbox
// messages. Warm-state snapshots require Quiet.
func (n *Network) Quiet() bool {
	if len(n.pending) != 0 {
		return false
	}
	for _, r := range n.routers {
		if r.delivery.queue.Len() != 0 {
			return false
		}
		for _, q := range r.ports {
			if q.queue.Len() != 0 {
				return false
			}
		}
	}
	for _, b := range n.boxes {
		if b.queue.Len() != 0 || b.waiters.Len() != 0 {
			return false
		}
	}
	return true
}

// halfLinksInOrder returns every half-link in deterministic order: local
// endpoint pairs sorted ascending, lower-endpoint-origin direction first.
func (n *Network) halfLinksInOrder() []*machine.HalfLink {
	keys := make([][2]int, 0, len(n.links))
	for key := range n.links {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	out := make([]*machine.HalfLink, 0, 2*len(keys))
	for _, key := range keys {
		l := n.links[key]
		out = append(out, l.AtoB, l.BtoA)
	}
	return out
}

// SnapshotState captures the cross-job state. It panics when the network is
// not Quiet — a snapshot with messages in flight would silently lose them.
func (n *Network) SnapshotState() State {
	if !n.Quiet() {
		panic("comm: snapshot of a network with messages in flight")
	}
	st := State{
		Stats:   n.stats,
		NextBox: append([]int(nil), n.nextBox...),
		NextUID: n.nextUID,
	}
	for key := range n.downLinks {
		ga, gb := n.nodes[key[0]], n.nodes[key[1]]
		if ga > gb {
			ga, gb = gb, ga
		}
		st.DownLinks = append(st.DownLinks, [2]int{ga, gb})
	}
	sort.Slice(st.DownLinks, func(i, j int) bool {
		if st.DownLinks[i][0] != st.DownLinks[j][0] {
			return st.DownLinks[i][0] < st.DownLinks[j][0]
		}
		return st.DownLinks[i][1] < st.DownLinks[j][1]
	})
	for _, h := range n.halfLinksInOrder() {
		st.Links = append(st.Links, h.Stats())
	}
	return st
}

// RestoreState installs a donor network's cross-job state into this freshly
// constructed network. The receiver must be structurally identical to the
// donor (same node set and topology) and Quiet.
func (n *Network) RestoreState(st State) error {
	if !n.Quiet() {
		return fmt.Errorf("comm: restore into a network with messages in flight")
	}
	if len(st.NextBox) != len(n.nextBox) {
		return fmt.Errorf("comm: restore next_box len %d into %d-node network", len(st.NextBox), len(n.nextBox))
	}
	half := n.halfLinksInOrder()
	if len(st.Links) != len(half) {
		return fmt.Errorf("comm: restore %d half-link stats into network with %d", len(st.Links), len(half))
	}
	n.stats = st.Stats
	copy(n.nextBox, st.NextBox)
	n.nextUID = st.NextUID
	for i, h := range half {
		h.RestoreStats(st.Links[i])
	}
	// Re-applying link failures through SetLinkState rebuilds the detour
	// table exactly as the donor's fault history left it.
	for _, l := range st.DownLinks {
		if _, ok := n.localOf[l[0]]; !ok {
			return fmt.Errorf("comm: restore of down link %d-%d outside partition", l[0], l[1])
		}
		n.SetLinkState(l[0], l[1], false)
	}
	return nil
}
