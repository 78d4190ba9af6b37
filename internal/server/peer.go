package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"time"

	"smtdram/internal/store"
)

// This file is the daemon's fleet surface (DESIGN §16): the hooks a fleet
// wires in (cache peering, tenant/priority admission) and the two endpoints
// other fleet members call (peer entry transfer, identity probe). The server
// never imports internal/fleet — fleet implements these interfaces and
// cmd/smtdramd connects the two — so the dependency arrow stays one-way.

// PeerFetcher consults fleet peers for a durable-store entry on a local
// miss. A hit returns the entry's payload and meta sidecar, already
// CRC-verified against the store framing; ErrPeerMiss is a clean miss, and an
// error wrapping ErrPeerCorrupt reports an entry that failed verification
// (counted, then treated as a miss — corrupt bytes are never served).
type PeerFetcher interface {
	Fetch(ctx context.Context, key string) (payload, meta []byte, err error)
}

// ErrPeerMiss reports that no peer holds the key.
var ErrPeerMiss = errors.New("peer: entry not found")

// ErrPeerCorrupt reports a peer entry that failed CRC verification.
var ErrPeerCorrupt = errors.New("peer: entry corrupt")

// Admission layers per-tenant quotas and two-level priority in front of the
// bounded queue. Charge is spent by every submission (cached answers
// included: the quota prices requests, not simulations); Acquire gates only
// jobs that take a queue slot, and its release runs exactly once when the
// slot frees.
type Admission interface {
	Charge(tenant string) (ok bool, retryAfter time.Duration)
	Acquire(high bool) (release func(), ok bool)
}

// Role reports how this daemon presents in a fleet: "worker" when it has a
// node identity, "single" otherwise. (The coordinator is its own process and
// reports "coordinator".)
func (s *Server) Role() string {
	if s.cfg.NodeID != "" {
		return "worker"
	}
	return "single"
}

// peerGet is the peering tier of the cache ladder (LRU → disk → peer →
// compute): on a local miss, ask the fleet for the key's previous owner's
// copy. A hit is written through to the local store so the entry's new owner
// serves it from disk next time.
func (s *Server) peerGet(ctx context.Context, fp string) (answer, bool) {
	if s.cfg.PeerFetch == nil {
		return answer{}, false
	}
	timeout := s.cfg.PeerTimeout
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	payload, meta, err := s.cfg.PeerFetch.Fetch(ctx, fp)
	switch {
	case err == nil:
		s.count(s.mPeerHits)
		s.log.Info("peer cache hit", "fp", fp)
		a := answer{val: payload, skip: skipFromMeta(meta)}
		s.storePut(fp, a)
		return a, true
	case errors.Is(err, ErrPeerCorrupt):
		s.count(s.mPeerCorrupt)
		s.count(s.mPeerMisses)
		s.log.Warn("peer entry corrupt; recomputing locally", "fp", fp, "err", err)
	default:
		s.count(s.mPeerMisses)
	}
	return answer{}, false
}

// handlePeerResult serves one durable entry to a fleet peer in the store's
// CRC-framed entry format (GET /v1/peer/result?key=K). The memo's LRU
// answers first; the disk tier backs it. A corrupt on-disk entry has already been
// quarantined by store.Get and reports as a miss here — a peer never
// receives bytes the local daemon would not serve itself.
func (s *Server) handlePeerResult(w http.ResponseWriter, r *http.Request) {
	key := r.URL.Query().Get("key")
	if key == "" {
		writeErr(w, http.StatusBadRequest, "missing key parameter")
		return
	}
	a, ok := s.memo.Peek(key)
	if !ok {
		if a, ok = s.storeGet(key); !ok {
			s.count(s.mPeerServeMisses)
			writeErr(w, http.StatusNotFound, "no entry for key")
			return
		}
	}
	var meta []byte
	if a.skip != nil {
		meta, _ = json.Marshal(storeMeta{Skip: a.skip})
	}
	s.count(s.mPeerServed)
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(store.EncodeEntry(key, meta, a.val))
}

// NodeSelf is the /v1/fleet/self payload: the identity probe the coordinator
// uses to learn a worker's node id and readiness in one round trip.
type NodeSelf struct {
	NodeID        string   `json:"node_id"`
	Role          string   `json:"role"`
	Ready         bool     `json:"ready"`
	Reasons       []string `json:"reasons,omitempty"`
	UptimeSeconds float64  `json:"uptime_seconds"`
}

func (s *Server) handleFleetSelf(w http.ResponseWriter, r *http.Request) {
	rep := s.readiness()
	writeJSON(w, http.StatusOK, NodeSelf{
		NodeID:        s.cfg.NodeID,
		Role:          s.Role(),
		Ready:         rep.Ready,
		Reasons:       rep.Reasons,
		UptimeSeconds: time.Since(s.startedAt).Seconds(),
	})
}
