package coord

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestPathValidation(t *testing.T) {
	s := NewStore()
	for _, bad := range []string{"", "no-slash", "/trailing/", "//double", "/"} {
		if _, err := s.Create(bad, nil); err == nil {
			t.Errorf("Create(%q) should fail", bad)
		}
	}
}

func TestCreateGetSetDelete(t *testing.T) {
	s := NewStore()
	if _, err := s.Create("/a/b/c", []byte("v0")); err != nil {
		t.Fatal(err)
	}
	// Implicit parents exist.
	if !s.Exists("/a") || !s.Exists("/a/b") {
		t.Error("implicit parents missing")
	}
	if _, err := s.Create("/a/b/c", nil); !errors.Is(err, ErrNodeExists) {
		t.Errorf("duplicate create = %v", err)
	}
	data, v, err := s.Get("/a/b/c")
	if err != nil || string(data) != "v0" || v != 0 {
		t.Fatalf("get = %q v%d %v", data, v, err)
	}
	if _, err := s.Set("/a/b/c", []byte("v1"), 5); !errors.Is(err, ErrBadVersion) {
		t.Errorf("bad-version set = %v", err)
	}
	v, err = s.Set("/a/b/c", []byte("v1"), 0)
	if err != nil || v != 1 {
		t.Fatalf("set = v%d %v", v, err)
	}
	if _, _, err := s.Get("/nope"); !errors.Is(err, ErrNoNode) {
		t.Errorf("get missing = %v", err)
	}
	if err := s.Delete("/a/b", AnyVersion); err == nil {
		t.Error("delete with children should fail")
	}
	if err := s.Delete("/a/b/c", 0); !errors.Is(err, ErrBadVersion) {
		t.Errorf("bad-version delete = %v", err)
	}
	if err := s.Delete("/a/b/c", 1); err != nil {
		t.Fatal(err)
	}
	if s.Exists("/a/b/c") {
		t.Error("node survived delete")
	}
}

func TestCreateOrSet(t *testing.T) {
	s := NewStore()
	if _, err := s.CreateOrSet("/x", []byte("a")); err != nil {
		t.Fatal(err)
	}
	if v, err := s.CreateOrSet("/x", []byte("b")); err != nil || v != 1 {
		t.Fatalf("upsert = v%d %v", v, err)
	}
	data, _, _ := s.Get("/x")
	if string(data) != "b" {
		t.Errorf("data = %q", data)
	}
}

func TestChildren(t *testing.T) {
	s := NewStore()
	for _, p := range []string{"/w/2", "/w/1", "/w/10", "/w/1/sub"} {
		if _, err := s.CreateOrSet(p, nil); err != nil {
			t.Fatal(err)
		}
	}
	names, err := s.Children("/w")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"1", "10", "2"}
	if len(names) != len(want) {
		t.Fatalf("children = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("children = %v, want %v", names, want)
		}
	}
	if names, _ := s.Children("/empty"); len(names) != 0 {
		t.Error("children of missing node should be empty")
	}
}

func TestEventsSinceOrdering(t *testing.T) {
	s := NewStore()
	s.Create("/a", []byte("1"))
	s.Set("/a", []byte("2"), AnyVersion)
	s.Create("/b/x", nil)
	s.Delete("/a", AnyVersion)

	evs, cursor, err := s.EventsSince(context.Background(), 0, "/a", 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	types := []EventType{EventCreated, EventUpdated, EventDeleted}
	if len(evs) != 3 {
		t.Fatalf("events = %d: %v", len(evs), evs)
	}
	for i, ev := range evs {
		if ev.Type != types[i] || ev.Path != "/a" {
			t.Errorf("event %d = %v %s", i, ev.Type, ev.Path)
		}
		if i > 0 && ev.Seq <= evs[i-1].Seq {
			t.Error("events out of order")
		}
	}
	// Cursor advances past everything seen; next call times out empty.
	evs, _, err = s.EventsSince(context.Background(), cursor, "/a", 100, 20*time.Millisecond)
	if err != nil || len(evs) != 0 {
		t.Fatalf("drained cursor returned %v %v", evs, err)
	}
}

func TestEventsBlockingWakeup(t *testing.T) {
	s := NewStore()
	got := make(chan Event, 1)
	go func() {
		evs, _, err := s.EventsSince(context.Background(), 0, "/k", 10, 5*time.Second)
		if err == nil && len(evs) > 0 {
			got <- evs[0]
		}
	}()
	time.Sleep(30 * time.Millisecond)
	s.Create("/k", []byte("v"))
	select {
	case ev := <-got:
		if ev.Path != "/k" || ev.Type != EventCreated {
			t.Errorf("event = %+v", ev)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("watcher never woke")
	}
}

func TestSnapshot(t *testing.T) {
	s := NewStore()
	s.Create("/shards/1", []byte("a"))
	s.Create("/shards/2", []byte("b"))
	s.Create("/other", []byte("c"))
	snap, seq := s.Snapshot("/shards")
	if len(snap) != 3 { // /shards (implicit parent), /shards/1, /shards/2
		t.Fatalf("snapshot = %v", snap)
	}
	if string(snap["/shards/1"]) != "a" {
		t.Error("snapshot data wrong")
	}
	if seq == 0 {
		t.Error("snapshot cursor should be positive")
	}
}

func TestCompaction(t *testing.T) {
	s := NewStore()
	for i := 0; i < maxEventLog+100; i++ {
		if _, err := s.CreateOrSet("/spam", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	_, _, err := s.EventsSince(context.Background(), 0, "/spam", 10, 0)
	if !errors.Is(err, ErrCompacted) {
		t.Fatalf("expected ErrCompacted, got %v", err)
	}
}

func TestStoreClose(t *testing.T) {
	s := NewStore()
	done := make(chan error, 1)
	go func() {
		_, _, err := s.EventsSince(context.Background(), 0, "/x", 10, time.Minute)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	s.Close()
	if err := <-done; !errors.Is(err, ErrStoreClosed) {
		t.Fatalf("err = %v", err)
	}
	if _, err := s.Create("/y", nil); !errors.Is(err, ErrStoreClosed) {
		t.Errorf("create after close = %v", err)
	}
}

// TestRemoteClient exercises the full RPC surface over both transports.
func TestRemoteClient(t *testing.T) {
	for i, addr := range []string{"127.0.0.1:0", "inproc://coord-test"} {
		store := NewStore()
		srv, bound, err := Serve(store, addr)
		if err != nil {
			t.Fatal(err)
		}
		c, err := DialClient(bound)
		if err != nil {
			t.Fatal(err)
		}

		if _, err := c.Create("/r/1", []byte("one")); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Create("/r/1", nil); !errors.Is(err, ErrNodeExists) {
			t.Errorf("remote duplicate create = %v", err)
		}
		data, v, err := c.Get("/r/1")
		if err != nil || string(data) != "one" || v != 0 {
			t.Fatalf("remote get = %q v%d %v", data, v, err)
		}
		if _, err := c.Set("/r/1", []byte("two"), 9); !errors.Is(err, ErrBadVersion) {
			t.Errorf("remote bad-version = %v", err)
		}
		if _, err := c.Set("/r/1", []byte("two"), 0); err != nil {
			t.Fatal(err)
		}
		if _, err := c.CreateOrSet("/r/2", []byte("x")); err != nil {
			t.Fatal(err)
		}
		if !c.Exists("/r/2") || c.Exists("/r/404") {
			t.Error("remote Exists wrong")
		}
		names, err := c.Children("/r")
		if err != nil || len(names) != 2 {
			t.Fatalf("remote children = %v %v", names, err)
		}
		snap, seq := c.Snapshot("/r")
		if len(snap) != 3 || seq == 0 {
			t.Fatalf("remote snapshot = %d nodes seq %d", len(snap), seq)
		}
		evs, cursor, err := c.EventsSince(context.Background(), 0, "/r", 100, 0)
		if err != nil || len(evs) == 0 {
			t.Fatalf("remote events = %v %v", evs, err)
		}
		if cursor == 0 {
			t.Error("remote cursor = 0")
		}
		if err := c.Delete("/r/2", AnyVersion); err != nil {
			t.Fatal(err)
		}
		if err := c.Delete("/r/2", AnyVersion); !errors.Is(err, ErrNoNode) {
			t.Errorf("remote delete missing = %v", err)
		}
		c.Close()
		srv.Close()
		store.Close()
		_ = i
	}
}

// TestWatcher checks ordered delivery and reset-on-compaction.
func TestWatcher(t *testing.T) {
	store := NewStore()
	_, bound, err := Serve(store, "inproc://coord-watch")
	if err != nil {
		t.Fatal(err)
	}
	c, err := DialClient(bound)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var mu sync.Mutex
	var seen []string
	w := NewWatcher(c, "/watched", 0, func(ev Event) {
		mu.Lock()
		seen = append(seen, fmt.Sprintf("%s:%s", ev.Type, ev.Path))
		mu.Unlock()
	}, nil)
	defer w.Stop()

	store.Create("/watched/a", []byte("1"))
	store.Create("/elsewhere", nil)
	store.Set("/watched/a", []byte("2"), AnyVersion)

	deadline := time.After(3 * time.Second)
	for {
		mu.Lock()
		n := len(seen)
		mu.Unlock()
		if n >= 3 { // /watched (implicit), created, updated
			break
		}
		select {
		case <-deadline:
			mu.Lock()
			t.Fatalf("watcher saw only %v", seen)
			mu.Unlock()
		case <-time.After(10 * time.Millisecond):
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for _, s := range seen {
		if s == "created:/elsewhere" {
			t.Error("watcher leaked out-of-prefix event")
		}
	}
	last := seen[len(seen)-1]
	if last != "updated:/watched/a" {
		t.Errorf("events out of order: %v", seen)
	}
}

// TestWatcherStopInterruptsPoll requires Stop to end a watcher's long
// poll in flight, on the in-process store and across the wire, instead
// of waiting out the poll's 500 ms window.
func TestWatcherStopInterruptsPoll(t *testing.T) {
	store := NewStore()
	defer store.Close()
	srv, bound, err := Serve(store, "inproc://coord-watch-stop")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := DialClient(bound)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for name, co := range map[string]Coordinator{"store": store, "client": c} {
		w := NewWatcher(co, "/quiet", 0, func(Event) {}, nil)
		time.Sleep(20 * time.Millisecond) // let the first poll block
		start := time.Now()
		w.Stop()
		if d := time.Since(start); d > 50*time.Millisecond {
			t.Errorf("%s: Stop took %v, want under 50ms", name, d)
		}
	}
}

// TestEventsSinceCancel requires a blocked EventsSince to return the
// context's error once the context is cancelled.
func TestEventsSinceCancel(t *testing.T) {
	s := NewStore()
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(20*time.Millisecond, cancel)
	start := time.Now()
	if _, _, err := s.EventsSince(ctx, 0, "/none", 10, time.Minute); !errors.Is(err, context.Canceled) {
		t.Errorf("EventsSince after cancel: %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("EventsSince returned after %v", d)
	}
}

// TestEventsPagination checks the limit parameter: a reader can drain a
// large backlog in pages without losing or duplicating events.
func TestEventsPagination(t *testing.T) {
	s := NewStore()
	const total = 250
	for i := 0; i < total; i++ {
		if _, err := s.CreateOrSet("/page/n", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	var seen int
	cursor := uint64(0)
	for {
		evs, next, err := s.EventsSince(context.Background(), cursor, "/page", 64, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(evs) == 0 {
			break
		}
		for _, ev := range evs {
			if ev.Seq <= cursor && seen > 0 {
				t.Fatal("event replayed")
			}
		}
		seen += len(evs)
		cursor = next
		if len(evs) < 64 {
			break
		}
	}
	// +1 for the implicit parent creation of /page.
	if seen != total+1 {
		t.Fatalf("paged through %d events, want %d", seen, total+1)
	}
}

// TestWatcherResetOnCompaction forces log compaction under a slow watcher
// and checks OnReset delivers a full snapshot.
func TestWatcherResetOnCompaction(t *testing.T) {
	s := NewStore()
	s.Create("/base", []byte("keep"))

	resetCh := make(chan map[string][]byte, 1)
	// Start the watcher at cursor 0, then blow the log past its position.
	for i := 0; i < maxEventLog+50; i++ {
		if _, err := s.CreateOrSet("/churn", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	w := NewWatcher(s, "/base", 0, func(Event) {}, func(snap map[string][]byte) {
		select {
		case resetCh <- snap:
		default:
		}
	})
	defer w.Stop()
	select {
	case snap := <-resetCh:
		if string(snap["/base"]) != "keep" {
			t.Fatalf("snapshot missing base node: %v", snap)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("watcher never reset")
	}
}

// TestConcurrentStoreAccess hammers the store from many goroutines.
func TestConcurrentStoreAccess(t *testing.T) {
	s := NewStore()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				path := fmt.Sprintf("/c/%d/%d", g, i%10)
				if _, err := s.CreateOrSet(path, []byte{byte(i)}); err != nil {
					t.Error(err)
					return
				}
				if _, _, err := s.Get(path); err != nil {
					t.Error(err)
					return
				}
				if _, err := s.Children(fmt.Sprintf("/c/%d", g)); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	names, _ := s.Children("/c")
	if len(names) != 8 {
		t.Errorf("children = %v", names)
	}
}
