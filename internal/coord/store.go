// Package coord is VOLAP's coordination service, standing in for
// Zookeeper (§III-B): a fault-isolated process holding the global system
// image as a tree of small versioned nodes, with change notification so
// servers and the manager learn about updates "without wasteful polling".
//
// The store supports optimistic concurrency (compare-and-set on node
// versions) and an ordered event log; clients watch a path prefix and
// receive every event under it exactly once, in order, via long-polling
// (the moral equivalent of Zookeeper watches re-armed automatically).
package coord

import (
	"context"
	"errors"
	"fmt"
	"repro/internal/metrics"
	"sort"
	"strings"
	"sync"
	"time"
)

// Errors mirroring the Zookeeper client error set VOLAP relies on.
var (
	ErrNoNode      = errors.New("coord: no such node")
	ErrNodeExists  = errors.New("coord: node already exists")
	ErrBadVersion  = errors.New("coord: version mismatch")
	ErrCompacted   = errors.New("coord: event log compacted; resync required")
	ErrBadPath     = errors.New("coord: bad path")
	ErrStoreClosed = errors.New("coord: store closed")
)

// AnyVersion disables the version check in Set and Delete.
const AnyVersion = -1

// EventType classifies a change.
type EventType uint8

const (
	// EventCreated fires when a node is created.
	EventCreated EventType = iota
	// EventUpdated fires when a node's data changes.
	EventUpdated
	// EventDeleted fires when a node is deleted.
	EventDeleted
)

// String names the event type.
func (t EventType) String() string {
	switch t {
	case EventCreated:
		return "created"
	case EventUpdated:
		return "updated"
	case EventDeleted:
		return "deleted"
	default:
		return "event?"
	}
}

// Event is one change in the store's ordered log. Data is the node's
// content after the change (nil for deletions).
type Event struct {
	Seq     uint64
	Type    EventType
	Path    string
	Data    []byte
	Version int64
}

// maxEventLog bounds the in-memory event log; watchers that fall further
// behind than this must resync from a full snapshot.
const maxEventLog = 1 << 16

type znode struct {
	data    []byte
	version int64
	owner   SessionID // nonzero = ephemeral, deleted with its session
}

// Store is the in-memory coordination tree. It is safe for concurrent
// use and may be used directly (embedded) or served over netmsg.
type Store struct {
	mu     sync.Mutex
	nodes  map[string]*znode
	events []Event
	seq    uint64 // last assigned event sequence number
	first  uint64 // sequence number of events[0]
	closed bool
	change *sync.Cond

	// liveness sessions (under mu)
	sessions    map[SessionID]*session
	sessSeq     uint64
	sessExpired uint64
	now         func() time.Time // injectable clock for deterministic tests
	janitorOnce sync.Once
	janitorStop chan struct{}
	stopOnce    sync.Once

	// observability counters (under mu)
	watchFires      uint64 // EventsSince calls that delivered events
	eventsDelivered uint64 // total events handed to watchers
}

// NewStore returns an empty store.
func NewStore() *Store {
	s := &Store{
		nodes:       make(map[string]*znode),
		sessions:    make(map[SessionID]*session),
		now:         time.Now,
		janitorStop: make(chan struct{}),
	}
	s.change = sync.NewCond(&s.mu)
	return s
}

// Close wakes all blocked watchers with ErrStoreClosed and stops the
// session janitor.
func (s *Store) Close() {
	s.stopOnce.Do(func() { close(s.janitorStop) })
	s.mu.Lock()
	s.closed = true
	s.change.Broadcast()
	s.mu.Unlock()
}

// validPath requires absolute slash-separated paths without empty
// segments, e.g. "/volap/shards/12".
func validPath(path string) bool {
	if path == "/" {
		return true
	}
	if !strings.HasPrefix(path, "/") || strings.HasSuffix(path, "/") {
		return false
	}
	for _, seg := range strings.Split(path[1:], "/") {
		if seg == "" {
			return false
		}
	}
	return true
}

// appendEvent records a change; callers hold s.mu.
func (s *Store) appendEvent(t EventType, path string, data []byte, version int64) {
	s.seq++
	if len(s.events) == 0 {
		s.first = s.seq
	}
	s.events = append(s.events, Event{Seq: s.seq, Type: t, Path: path, Data: data, Version: version})
	if len(s.events) > maxEventLog {
		drop := len(s.events) - maxEventLog
		s.events = append(s.events[:0:0], s.events[drop:]...)
		s.first = s.events[0].Seq
	}
	s.change.Broadcast()
}

// Create adds a node. Parents are created implicitly as empty nodes
// (VOLAP's layout is fixed, so the Zookeeper-style explicit-parent dance
// adds nothing). Returns the node's initial version (0).
func (s *Store) Create(path string, data []byte) (int64, error) {
	if !validPath(path) || path == "/" {
		return 0, ErrBadPath
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrStoreClosed
	}
	s.expireLocked()
	return s.createLocked(path, data)
}

// createLocked is Create's core; callers hold s.mu and have validated
// the path.
func (s *Store) createLocked(path string, data []byte) (int64, error) {
	if _, ok := s.nodes[path]; ok {
		return 0, fmt.Errorf("%w: %s", ErrNodeExists, path)
	}
	// Implicit parents; an ephemeral ancestor makes the path invalid.
	for p := parentOf(path); p != "/" && p != ""; p = parentOf(p) {
		if n, ok := s.nodes[p]; ok {
			if n.owner != 0 {
				return 0, fmt.Errorf("%w: %s under %s", ErrEphemeral, path, p)
			}
			break
		}
	}
	for p := parentOf(path); p != "/" && p != ""; p = parentOf(p) {
		if _, ok := s.nodes[p]; ok {
			break
		}
		s.nodes[p] = &znode{}
		s.appendEvent(EventCreated, p, nil, 0)
	}
	s.nodes[path] = &znode{data: cloneBytes(data)}
	s.appendEvent(EventCreated, path, cloneBytes(data), 0)
	return 0, nil
}

// Set replaces a node's data if the expected version matches (or
// AnyVersion). Returns the new version.
func (s *Store) Set(path string, data []byte, expected int64) (int64, error) {
	if !validPath(path) {
		return 0, ErrBadPath
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrStoreClosed
	}
	s.expireLocked()
	n, ok := s.nodes[path]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNoNode, path)
	}
	if expected != AnyVersion && n.version != expected {
		return 0, fmt.Errorf("%w: %s at %d, expected %d", ErrBadVersion, path, n.version, expected)
	}
	n.data = cloneBytes(data)
	n.version++
	s.appendEvent(EventUpdated, path, cloneBytes(data), n.version)
	return n.version, nil
}

// CreateOrSet upserts a node regardless of existence and returns the new
// version; a convenience VOLAP uses for periodic stat publication.
func (s *Store) CreateOrSet(path string, data []byte) (int64, error) {
	if _, err := s.Create(path, data); err == nil {
		return 0, nil
	} else if !errors.Is(err, ErrNodeExists) {
		return 0, err
	}
	return s.Set(path, data, AnyVersion)
}

// Get returns a node's data and version.
func (s *Store) Get(path string) ([]byte, int64, error) {
	if !validPath(path) {
		return nil, 0, ErrBadPath
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		s.expireLocked()
	}
	n, ok := s.nodes[path]
	if !ok {
		return nil, 0, fmt.Errorf("%w: %s", ErrNoNode, path)
	}
	return cloneBytes(n.data), n.version, nil
}

// Exists reports whether the node is present.
func (s *Store) Exists(path string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		s.expireLocked()
	}
	_, ok := s.nodes[path]
	return ok
}

// Children lists the immediate child names of a path, sorted.
func (s *Store) Children(path string) ([]string, error) {
	if !validPath(path) {
		return nil, ErrBadPath
	}
	prefix := path
	if prefix != "/" {
		prefix += "/"
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		s.expireLocked()
	}
	var names []string
	for p := range s.nodes {
		if !strings.HasPrefix(p, prefix) {
			continue
		}
		rest := p[len(prefix):]
		if !strings.Contains(rest, "/") {
			names = append(names, rest)
		}
	}
	sort.Strings(names)
	return names, nil
}

// Delete removes a node (children must be gone first) if the version
// matches.
func (s *Store) Delete(path string, expected int64) error {
	if !validPath(path) || path == "/" {
		return ErrBadPath
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrStoreClosed
	}
	s.expireLocked()
	n, ok := s.nodes[path]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoNode, path)
	}
	if expected != AnyVersion && n.version != expected {
		return fmt.Errorf("%w: %s at %d, expected %d", ErrBadVersion, path, n.version, expected)
	}
	prefix := path + "/"
	for p := range s.nodes {
		if strings.HasPrefix(p, prefix) {
			return fmt.Errorf("coord: %s has children", path)
		}
	}
	if n.owner != 0 {
		if sess, ok := s.sessions[n.owner]; ok {
			delete(sess.eph, path)
		}
	}
	delete(s.nodes, path)
	s.appendEvent(EventDeleted, path, nil, n.version)
	return nil
}

// Snapshot returns every node under the prefix (inclusive) plus the
// current event sequence number, for watcher bootstrap.
func (s *Store) Snapshot(prefix string) (map[string][]byte, uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		s.expireLocked()
	}
	out := make(map[string][]byte)
	for p, n := range s.nodes {
		if matchesPrefix(p, prefix) {
			out[p] = cloneBytes(n.data)
		}
	}
	return out, s.seq
}

// EventsSince blocks until at least one event with Seq > since matching
// the prefix exists (or the timeout expires, or ctx is done), then
// returns matching events in order and the new cursor. A cursor older
// than the log start yields ErrCompacted; a done ctx yields its error.
func (s *Store) EventsSince(ctx context.Context, since uint64, prefix string, limit int, timeout time.Duration) ([]Event, uint64, error) {
	if limit <= 0 {
		limit = 1 << 10
	}
	// Cond has no timed or cancellable wait; poke the condition at the
	// deadline and when ctx is done.
	poke := func() {
		s.mu.Lock()
		s.change.Broadcast()
		s.mu.Unlock()
	}
	deadline := time.Now().Add(timeout)
	if timeout > 0 {
		defer time.AfterFunc(timeout, poke).Stop()
	}
	defer context.AfterFunc(ctx, poke)()
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.closed {
			return nil, since, ErrStoreClosed
		}
		if err := ctx.Err(); err != nil {
			return nil, since, err
		}
		s.expireLocked()
		if len(s.events) > 0 && since+1 < s.first {
			return nil, s.seq, ErrCompacted
		}
		var out []Event
		cursor := since
		for _, ev := range s.events {
			if ev.Seq <= since {
				continue
			}
			cursor = ev.Seq
			if matchesPrefix(ev.Path, prefix) {
				out = append(out, ev)
				if len(out) >= limit {
					break
				}
			}
		}
		if len(out) > 0 {
			s.watchFires++
			s.eventsDelivered += uint64(len(out))
			return out, cursor, nil
		}
		since = cursor // skip non-matching events permanently
		if timeout > 0 && !time.Now().Before(deadline) {
			return nil, since, nil
		}
		s.change.Wait()
	}
}

// WatchStats returns observability counters: watch deliveries (fires),
// events delivered, total events logged, and live node count.
func (s *Store) WatchStats() (fires, delivered, logged, nodes uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.watchFires, s.eventsDelivered, s.seq, uint64(len(s.nodes))
}

// RegisterMetrics exports the store's counters into a registry.
func (s *Store) RegisterMetrics(reg *metrics.Registry) {
	reg.CounterFunc("coord_watch_fires_total", func() uint64 {
		f, _, _, _ := s.WatchStats()
		return f
	})
	reg.CounterFunc("coord_events_delivered_total", func() uint64 {
		_, d, _, _ := s.WatchStats()
		return d
	})
	reg.CounterFunc("coord_events_logged_total", func() uint64 {
		_, _, l, _ := s.WatchStats()
		return l
	})
	reg.GaugeFunc("coord_nodes", func() float64 {
		_, _, _, n := s.WatchStats()
		return float64(n)
	})
	reg.GaugeFunc("coord_sessions", func() float64 {
		live, _ := s.SessionStats()
		return float64(live)
	})
	reg.CounterFunc("coord_sessions_expired_total", func() uint64 {
		_, expired := s.SessionStats()
		return expired
	})
}

// matchesPrefix reports whether path is prefix itself or below it.
func matchesPrefix(path, prefix string) bool {
	if prefix == "" || prefix == "/" {
		return true
	}
	return path == prefix || strings.HasPrefix(path, prefix+"/")
}

func parentOf(path string) string {
	i := strings.LastIndexByte(path, '/')
	if i <= 0 {
		return "/"
	}
	return path[:i]
}

func cloneBytes(b []byte) []byte {
	if b == nil {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}
