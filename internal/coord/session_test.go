package coord

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock is an adjustable time source for deterministic expiry tests.
type fakeClock struct {
	base   time.Time
	offset atomic.Int64 // nanoseconds added to base
}

func newFakeClock() *fakeClock {
	return &fakeClock{base: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) now() time.Time { return c.base.Add(time.Duration(c.offset.Load())) }

func (c *fakeClock) advance(d time.Duration) { c.offset.Add(int64(d)) }

// TestSessionExpiryReapsEphemerals checks the core TTL contract: an
// ephemeral outlives heartbeats but not a missed TTL, and its deletion
// fires through the ordinary watch machinery.
func TestSessionExpiryReapsEphemerals(t *testing.T) {
	s := NewStore()
	defer s.Close()
	clk := newFakeClock()
	s.SetClock(clk.now)

	id, err := s.CreateSession(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateEphemeral("/volap/workers/w9", []byte("meta"), id); err != nil {
		t.Fatal(err)
	}

	// Heartbeats hold the node across several TTL windows.
	for i := 0; i < 3; i++ {
		clk.advance(800 * time.Millisecond)
		if err := s.Heartbeat(id); err != nil {
			t.Fatalf("heartbeat %d: %v", i, err)
		}
	}
	if !s.Exists("/volap/workers/w9") {
		t.Fatal("ephemeral vanished while heartbeating")
	}

	// One missed TTL reaps it.
	clk.advance(1100 * time.Millisecond)
	if n := s.ExpireSessions(); n != 1 {
		t.Fatalf("ExpireSessions = %d, want 1", n)
	}
	if s.Exists("/volap/workers/w9") {
		t.Fatal("ephemeral survived session expiry")
	}
	if err := s.Heartbeat(id); !errors.Is(err, ErrNoSession) {
		t.Fatalf("heartbeat after expiry = %v, want ErrNoSession", err)
	}

	// The deletion is an ordinary event, visible to watchers.
	evs, _, err := s.EventsSince(context.Background(), 0, "/volap/workers", 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	var deleted bool
	for _, ev := range evs {
		if ev.Type == EventDeleted && ev.Path == "/volap/workers/w9" {
			deleted = true
		}
	}
	if !deleted {
		t.Fatalf("no EventDeleted for the reaped ephemeral in %+v", evs)
	}

	if live, expired := s.SessionStats(); live != 0 || expired != 1 {
		t.Fatalf("session stats = (%d, %d), want (0, 1)", live, expired)
	}
}

// TestSessionLazyExpiry checks any ordinary store operation reaps
// overdue sessions — no janitor tick needed.
func TestSessionLazyExpiry(t *testing.T) {
	s := NewStore()
	defer s.Close()
	clk := newFakeClock()
	s.SetClock(clk.now)

	id, err := s.CreateSession(100 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateEphemeral("/lazy", nil, id); err != nil {
		t.Fatal(err)
	}
	clk.advance(200 * time.Millisecond)
	// Exists itself triggers lazy expiry.
	if s.Exists("/lazy") {
		t.Fatal("expired ephemeral still visible")
	}
}

// TestCloseSessionImmediate checks graceful close deletes ephemerals now
// rather than after the TTL.
func TestCloseSessionImmediate(t *testing.T) {
	s := NewStore()
	defer s.Close()
	id, err := s.CreateSession(time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateEphemeral("/bye", nil, id); err != nil {
		t.Fatal(err)
	}
	if err := s.CloseSession(id); err != nil {
		t.Fatal(err)
	}
	if s.Exists("/bye") {
		t.Fatal("ephemeral survived CloseSession")
	}
	if err := s.CloseSession(id); !errors.Is(err, ErrNoSession) {
		t.Fatalf("second close = %v, want ErrNoSession", err)
	}
}

// TestEphemeralsAreLeaves checks the Zookeeper rule: no children under
// an ephemeral node.
func TestEphemeralsAreLeaves(t *testing.T) {
	s := NewStore()
	defer s.Close()
	id, err := s.CreateSession(time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateEphemeral("/eph", nil, id); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create("/eph/child", nil); !errors.Is(err, ErrEphemeral) {
		t.Fatalf("create under ephemeral = %v, want ErrEphemeral", err)
	}
}

// TestEphemeralDeleteDetaches checks an explicitly deleted ephemeral is
// detached from its session: recreating the path as a normal node must
// survive the session's later expiry.
func TestEphemeralDeleteDetaches(t *testing.T) {
	s := NewStore()
	defer s.Close()
	clk := newFakeClock()
	s.SetClock(clk.now)
	id, err := s.CreateSession(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateEphemeral("/detach", nil, id); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("/detach", AnyVersion); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create("/detach", []byte("persistent")); err != nil {
		t.Fatal(err)
	}
	clk.advance(2 * time.Second)
	s.ExpireSessions()
	if !s.Exists("/detach") {
		t.Fatal("persistent node reaped by a stale session claim")
	}
}

// TestCreateEphemeralRequiresSession checks unknown sessions are
// rejected up front.
func TestCreateEphemeralRequiresSession(t *testing.T) {
	s := NewStore()
	defer s.Close()
	if _, err := s.CreateEphemeral("/x", nil, SessionID(999)); !errors.Is(err, ErrNoSession) {
		t.Fatalf("err = %v, want ErrNoSession", err)
	}
}

// TestSessionIDsNeverReused checks a successor session gets a fresh ID
// so a stale holder cannot touch its ephemerals.
func TestSessionIDsNeverReused(t *testing.T) {
	s := NewStore()
	defer s.Close()
	a, _ := s.CreateSession(time.Hour)
	if err := s.CloseSession(a); err != nil {
		t.Fatal(err)
	}
	b, _ := s.CreateSession(time.Hour)
	if a == b {
		t.Fatalf("session ID %d reused", a)
	}
}

// TestSessionHelperPublishAndReestablish checks the client-side keeper:
// Publish upserts, and after a forced expiry the next Publish opens a
// replacement session and re-creates the node.
func TestSessionHelperPublishAndReestablish(t *testing.T) {
	s := NewStore()
	defer s.Close()
	clk := newFakeClock()
	s.SetClock(clk.now)

	sess, err := OpenSession(s, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sess.Close() }()

	if err := sess.Publish("/volap/workers/w0", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := sess.Publish("/volap/workers/w0", []byte("v2")); err != nil {
		t.Fatalf("second publish (upsert): %v", err)
	}
	raw, _, err := s.Get("/volap/workers/w0")
	if err != nil || string(raw) != "v2" {
		t.Fatalf("node = %q, %v; want v2", raw, err)
	}

	// Force an expiry: the node vanishes, the next Publish re-registers
	// under a fresh session.
	old := sess.ID()
	clk.advance(2 * time.Hour)
	if n := s.ExpireSessions(); n != 1 {
		t.Fatalf("ExpireSessions = %d, want 1", n)
	}
	if s.Exists("/volap/workers/w0") {
		t.Fatal("node survived expiry")
	}
	if err := sess.Publish("/volap/workers/w0", []byte("v3")); err != nil {
		t.Fatalf("publish after expiry: %v", err)
	}
	if sess.ID() == old {
		t.Fatal("session ID unchanged after re-establish")
	}
	if sess.Expirations() == 0 {
		t.Fatal("expirations counter not bumped")
	}
	raw, _, _ = s.Get("/volap/workers/w0")
	if string(raw) != "v3" {
		t.Fatalf("node = %q, want v3", raw)
	}
}

// TestSessionAbandonLeavesLease checks Abandon stops heartbeating
// without closing the session: the ephemeral lingers until the TTL, the
// crash-like half of the kill-worker chaos tests.
func TestSessionAbandonLeavesLease(t *testing.T) {
	s := NewStore()
	defer s.Close()
	clk := newFakeClock()
	s.SetClock(clk.now)

	sess, err := OpenSession(s, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Publish("/crash", nil); err != nil {
		t.Fatal(err)
	}
	sess.Abandon()
	if !s.Exists("/crash") {
		t.Fatal("ephemeral gone immediately after Abandon")
	}
	clk.advance(2 * time.Hour)
	s.ExpireSessions()
	if s.Exists("/crash") {
		t.Fatal("ephemeral survived TTL after Abandon")
	}
}

// TestSessionJanitor checks an idle store still reaps expired sessions
// in real time (no lazy-expiry trigger needed).
func TestSessionJanitor(t *testing.T) {
	s := NewStore()
	defer s.Close()
	id, err := s.CreateSession(30 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateEphemeral("/idle", nil, id); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for s.Exists("/idle") {
		if time.Now().After(deadline) {
			t.Fatal("janitor never reaped the expired session")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSessionRPC drives the session API through the coord RPC client:
// the sentinel errors must survive the wire.
func TestSessionRPC(t *testing.T) {
	s := NewStore()
	defer s.Close()
	srv, _, err := Serve(s, "inproc://session-rpc-test")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := DialClient("inproc://session-rpc-test")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	id, err := c.CreateSession(time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateEphemeral("/rpc-eph", []byte("x"), id); err != nil {
		t.Fatal(err)
	}
	if err := c.Heartbeat(id); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Create("/rpc-eph/kid", nil); !errors.Is(err, ErrEphemeral) {
		t.Fatalf("create under ephemeral via RPC = %v, want ErrEphemeral", err)
	}
	if err := c.CloseSession(id); err != nil {
		t.Fatal(err)
	}
	if err := c.Heartbeat(id); !errors.Is(err, ErrNoSession) {
		t.Fatalf("heartbeat closed session via RPC = %v, want ErrNoSession", err)
	}
	if s.Exists("/rpc-eph") {
		t.Fatal("ephemeral survived RPC CloseSession")
	}
}
