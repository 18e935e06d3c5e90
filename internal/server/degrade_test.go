package server

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/coord"
	"repro/internal/image"
	"repro/internal/keys"
)

// waitWorkerDown polls until the server's down set reflects want (the
// watcher applies deletion events asynchronously).
func waitWorkerDown(t *testing.T, s *Server, id string, want bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if s.isWorkerDown(id) == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("worker %s down-state never became %v", id, want)
}

// seedBothWorkers inserts items until both workers hold data, so a full
// query genuinely needs both. The seed is fixed; the distribution is
// deterministic.
func seedBothWorkers(t *testing.T, h *harness, s *Server) (rng *rand.Rand, total uint64) {
	t.Helper()
	rng = rand.New(rand.NewSource(11))
	for i := 0; i < 400; i++ {
		if err := s.Insert(context.Background(), randItem(rng)); err != nil {
			t.Fatal(err)
		}
	}
	w0, w1 := h.workers[0].ShardCount(0), h.workers[1].ShardCount(1)
	if w0 == 0 || w1 == 0 {
		t.Fatalf("seed routed everything to one worker: w0=%d w1=%d", w0, w1)
	}
	return rng, w0 + w1
}

// TestWorkerDeletionMarksDown checks the liveness pipeline end to end on
// the coordination side: deleting a worker's registration (what a
// session expiry does) marks it down via the watch, and a
// re-registration revives it.
func TestWorkerDeletionMarksDown(t *testing.T) {
	h := newHarness(t, 2, 1)
	s := h.server("s0", time.Hour)
	if s.isWorkerDown("w1") {
		t.Fatal("fresh worker already down")
	}
	if err := h.store.Delete(image.WorkerPath("w1"), coord.AnyVersion); err != nil {
		t.Fatal(err)
	}
	waitWorkerDown(t, s, "w1", true)

	meta := &image.WorkerMeta{ID: "w1", Addr: h.workers[1].Addr(), UpdatedMs: time.Now().UnixMilli()}
	if _, err := h.store.CreateOrSet(image.WorkerPath("w1"), meta.EncodeBytes()); err != nil {
		t.Fatal(err)
	}
	waitWorkerDown(t, s, "w1", false)
}

// readPath is one half of scatter, driven over the whole space: a plain
// aggregate query, or a group-by whose groups are summed back into one
// count. The degradation and retry tests run over both.
type readPath struct {
	name string
	read func(s *Server, q keys.Rect) (count uint64, info QueryInfo, err error)
}

var readPaths = []readPath{
	{"query", func(s *Server, q keys.Rect) (uint64, QueryInfo, error) {
		agg, info, err := s.Query(context.Background(), q, QueryOptions{})
		return agg.Count, info, err
	}},
	{"groupby", func(s *Server, q keys.Rect) (uint64, QueryInfo, error) {
		groups, info, err := s.GroupBy(context.Background(), q, 0, 0, QueryOptions{})
		var n uint64
		for _, g := range groups {
			n += g.Agg.Count
		}
		return n, info, err
	}},
}

// TestQueryPartialOnDeadWorker checks graceful degradation: with one
// worker dead, a spanning read returns the live shards' aggregate plus
// an explicit report of what is missing — never a silently wrong total.
func TestQueryPartialOnDeadWorker(t *testing.T) {
	for _, p := range readPaths {
		t.Run(p.name, func(t *testing.T) {
			h := newHarness(t, 2, 1) // w0 owns shard 0, w1 owns shard 1
			s := h.server("s0", time.Hour)
			_, total := seedBothWorkers(t, h, s)
			liveCount := h.workers[0].ShardCount(0)
			all := keys.AllRect(h.cfg.Schema)

			count, info, err := p.read(s, all)
			if err != nil {
				t.Fatal(err)
			}
			if info.Partial() || count != total {
				t.Fatalf("healthy read: count=%d partial=%v, want %d full", count, info.Partial(), total)
			}

			h.workers[1].Close()
			if err := h.store.Delete(image.WorkerPath("w1"), coord.AnyVersion); err != nil {
				t.Fatal(err)
			}
			waitWorkerDown(t, s, "w1", true)

			start := time.Now()
			count, info, err = p.read(s, all)
			if err != nil {
				t.Fatalf("degraded read should return partial results, got %v", err)
			}
			if !info.Partial() {
				t.Fatal("degraded read not marked partial")
			}
			if len(info.MissingShards) != 1 || info.MissingShards[0] != 1 {
				t.Fatalf("missing shards = %v, want [1]", info.MissingShards)
			}
			if count != liveCount {
				t.Fatalf("partial count = %d, want live worker's %d", count, liveCount)
			}
			// Down-shard exclusion must not burn the retry/timeout budget.
			if took := time.Since(start); took > 2*time.Second {
				t.Fatalf("degraded read took %v", took)
			}

			var b bytes.Buffer
			if err := s.Metrics().WritePrometheus(&b); err != nil {
				t.Fatal(err)
			}
			out := b.String()
			for _, want := range []string{"server_partial_queries_total 1", "server_down_workers 1"} {
				if !strings.Contains(out, want) {
					t.Errorf("metrics missing %q", want)
				}
			}
		})
	}
}

// TestQueryRecoversAfterReregistration checks the revival path: the
// registration reappears (worker was partitioned, not dead) and full
// results resume.
func TestQueryRecoversAfterReregistration(t *testing.T) {
	for _, p := range readPaths {
		t.Run(p.name, func(t *testing.T) {
			h := newHarness(t, 2, 1)
			s := h.server("s0", time.Hour)
			_, total := seedBothWorkers(t, h, s)
			all := keys.AllRect(h.cfg.Schema)

			if err := h.store.Delete(image.WorkerPath("w1"), coord.AnyVersion); err != nil {
				t.Fatal(err)
			}
			waitWorkerDown(t, s, "w1", true)
			_, info, err := p.read(s, all)
			if err != nil || !info.Partial() {
				t.Fatalf("read while deregistered: err=%v partial=%v, want partial", err, info.Partial())
			}

			// The worker never died — its registration comes back (in
			// production the session keeper republishes it).
			meta := &image.WorkerMeta{ID: "w1", Addr: h.workers[1].Addr(), UpdatedMs: time.Now().UnixMilli()}
			if _, err := h.store.CreateOrSet(image.WorkerPath("w1"), meta.EncodeBytes()); err != nil {
				t.Fatal(err)
			}
			waitWorkerDown(t, s, "w1", false)
			count, info, err := p.read(s, all)
			if err != nil {
				t.Fatal(err)
			}
			if info.Partial() || count != total {
				t.Fatalf("recovered read: count=%d partial=%v, want %d full", count, info.Partial(), total)
			}
		})
	}
}

// TestInsertFastFailWorkerDown checks inserts routed to a dead worker's
// shard fail typed and fast — no retry budget burned against a corpse —
// while inserts routed to live shards keep succeeding.
func TestInsertFastFailWorkerDown(t *testing.T) {
	h := newHarness(t, 2, 1)
	s := h.server("s0", time.Hour)
	rng, _ := seedBothWorkers(t, h, s)

	h.workers[1].Close()
	if err := h.store.Delete(image.WorkerPath("w1"), coord.AnyVersion); err != nil {
		t.Fatal(err)
	}
	waitWorkerDown(t, s, "w1", true)

	var downErrs, ok int
	for i := 0; i < 400; i++ {
		start := time.Now()
		err := s.Insert(context.Background(), randItem(rng))
		took := time.Since(start)
		switch {
		case err == nil:
			ok++
		case errors.Is(err, ErrWorkerDown):
			downErrs++
			if took > 2*time.Second {
				t.Fatalf("ErrWorkerDown took %v — not a fast fail", took)
			}
		default:
			t.Fatalf("insert error = %v, want nil or ErrWorkerDown", err)
		}
	}
	if downErrs == 0 {
		t.Fatal("no insert ever routed to the dead worker's shard")
	}
	if ok == 0 {
		t.Fatal("no insert succeeded on the live worker")
	}
}
