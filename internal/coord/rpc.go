package coord

import (
	"context"
	"errors"
	"strings"
	"sync"
	"time"

	"repro/internal/netmsg"
	"repro/internal/wire"
)

// Coordinator is the API shared by the embedded Store and the remote
// Client, so every VOLAP component runs identically in-process and
// distributed.
type Coordinator interface {
	Create(path string, data []byte) (int64, error)
	Set(path string, data []byte, expected int64) (int64, error)
	CreateOrSet(path string, data []byte) (int64, error)
	Get(path string) ([]byte, int64, error)
	Exists(path string) bool
	Children(path string) ([]string, error)
	Delete(path string, expected int64) error
	Snapshot(prefix string) (map[string][]byte, uint64)
	// EventsSince long-polls for events under prefix after since, for
	// up to timeout; cancelling ctx ends the poll early with ctx's error.
	EventsSince(ctx context.Context, since uint64, prefix string, limit int, timeout time.Duration) ([]Event, uint64, error)

	// Liveness sessions (§III-B): ephemeral nodes vanish when their
	// session misses heartbeats for a TTL, firing deletion watches.
	CreateSession(ttl time.Duration) (SessionID, error)
	Heartbeat(id SessionID) error
	CloseSession(id SessionID) error
	CreateEphemeral(path string, data []byte, owner SessionID) (int64, error)
}

var (
	_ Coordinator = (*Store)(nil)
	_ Coordinator = (*Client)(nil)
)

// Serve exposes the store over netmsg at addr and returns the server and
// its bound address.
func Serve(s *Store, addr string) (*netmsg.Server, string, error) {
	srv := netmsg.NewServer()
	srv.Handle("coord.create", func(_ context.Context, p []byte) ([]byte, error) {
		r := wire.NewReader(p)
		path, data := r.String(), r.Bytes1()
		if r.Err() != nil {
			return nil, r.Err()
		}
		v, err := s.Create(path, data)
		return versionReply(v), err
	})
	srv.Handle("coord.set", func(_ context.Context, p []byte) ([]byte, error) {
		r := wire.NewReader(p)
		path, data, expected := r.String(), r.Bytes1(), r.Varint()
		if r.Err() != nil {
			return nil, r.Err()
		}
		v, err := s.Set(path, data, expected)
		return versionReply(v), err
	})
	srv.Handle("coord.createorset", func(_ context.Context, p []byte) ([]byte, error) {
		r := wire.NewReader(p)
		path, data := r.String(), r.Bytes1()
		if r.Err() != nil {
			return nil, r.Err()
		}
		v, err := s.CreateOrSet(path, data)
		return versionReply(v), err
	})
	srv.Handle("coord.get", func(_ context.Context, p []byte) ([]byte, error) {
		r := wire.NewReader(p)
		path := r.String()
		if r.Err() != nil {
			return nil, r.Err()
		}
		data, v, err := s.Get(path)
		if err != nil {
			return nil, err
		}
		w := wire.NewWriter(len(data) + 12)
		w.Varint(v)
		w.Bytes1(data)
		return w.Bytes(), nil
	})
	srv.Handle("coord.exists", func(_ context.Context, p []byte) ([]byte, error) {
		r := wire.NewReader(p)
		path := r.String()
		if r.Err() != nil {
			return nil, r.Err()
		}
		w := wire.NewWriter(1)
		w.Bool(s.Exists(path))
		return w.Bytes(), nil
	})
	srv.Handle("coord.children", func(_ context.Context, p []byte) ([]byte, error) {
		r := wire.NewReader(p)
		path := r.String()
		if r.Err() != nil {
			return nil, r.Err()
		}
		names, err := s.Children(path)
		if err != nil {
			return nil, err
		}
		w := wire.NewWriter(64)
		w.Uvarint(uint64(len(names)))
		for _, n := range names {
			w.String(n)
		}
		return w.Bytes(), nil
	})
	srv.Handle("coord.delete", func(_ context.Context, p []byte) ([]byte, error) {
		r := wire.NewReader(p)
		path, expected := r.String(), r.Varint()
		if r.Err() != nil {
			return nil, r.Err()
		}
		return nil, s.Delete(path, expected)
	})
	srv.Handle("coord.snapshot", func(_ context.Context, p []byte) ([]byte, error) {
		r := wire.NewReader(p)
		prefix := r.String()
		if r.Err() != nil {
			return nil, r.Err()
		}
		snap, seq := s.Snapshot(prefix)
		w := wire.NewWriter(256)
		w.Uint64(seq)
		w.Uvarint(uint64(len(snap)))
		for path, data := range snap {
			w.String(path)
			w.Bytes1(data)
		}
		return w.Bytes(), nil
	})
	srv.Handle("coord.events", func(ctx context.Context, p []byte) ([]byte, error) {
		r := wire.NewReader(p)
		since := r.Uint64()
		prefix := r.String()
		limit := int(r.Uvarint())
		timeout := time.Duration(r.Uvarint()) * time.Millisecond
		if r.Err() != nil {
			return nil, r.Err()
		}
		evs, cursor, err := s.EventsSince(ctx, since, prefix, limit, timeout)
		if err != nil {
			return nil, err
		}
		w := wire.NewWriter(256)
		w.Uint64(cursor)
		w.Uvarint(uint64(len(evs)))
		for _, ev := range evs {
			w.Uint64(ev.Seq)
			w.Uint8(uint8(ev.Type))
			w.String(ev.Path)
			w.Bytes1(ev.Data)
			w.Varint(ev.Version)
		}
		return w.Bytes(), nil
	})
	srv.Handle("coord.mksession", func(_ context.Context, p []byte) ([]byte, error) {
		r := wire.NewReader(p)
		ttl := time.Duration(r.Uvarint()) * time.Millisecond
		if r.Err() != nil {
			return nil, r.Err()
		}
		id, err := s.CreateSession(ttl)
		if err != nil {
			return nil, err
		}
		w := wire.NewWriter(8)
		w.Uint64(uint64(id))
		return w.Bytes(), nil
	})
	srv.Handle("coord.heartbeat", func(_ context.Context, p []byte) ([]byte, error) {
		r := wire.NewReader(p)
		id := SessionID(r.Uint64())
		if r.Err() != nil {
			return nil, r.Err()
		}
		return nil, s.Heartbeat(id)
	})
	srv.Handle("coord.rmsession", func(_ context.Context, p []byte) ([]byte, error) {
		r := wire.NewReader(p)
		id := SessionID(r.Uint64())
		if r.Err() != nil {
			return nil, r.Err()
		}
		return nil, s.CloseSession(id)
	})
	srv.Handle("coord.mkephemeral", func(_ context.Context, p []byte) ([]byte, error) {
		r := wire.NewReader(p)
		path, data, owner := r.String(), r.Bytes1(), SessionID(r.Uint64())
		if r.Err() != nil {
			return nil, r.Err()
		}
		v, err := s.CreateEphemeral(path, data, owner)
		return versionReply(v), err
	})
	bound, err := srv.Listen(addr)
	if err != nil {
		return nil, "", err
	}
	return srv, bound, nil
}

func versionReply(v int64) []byte {
	w := wire.NewWriter(10)
	w.Varint(v)
	return w.Bytes()
}

// Client is a remote Coordinator over netmsg.
type Client struct {
	c *netmsg.Client
}

// DialClient connects to a served store.
func DialClient(addr string) (*Client, error) {
	return DialClientOptions(addr, netmsg.DialOpts{})
}

// DialClientOptions connects with explicit netmsg options (deadlines,
// fault injection for chaos tests).
func DialClientOptions(addr string, opts netmsg.DialOpts) (*Client, error) {
	c, err := netmsg.DialOptions(addr, opts)
	if err != nil {
		return nil, err
	}
	return &Client{c: c}, nil
}

// Close closes the connection.
func (c *Client) Close() { c.c.Close() }

// mapRemoteError rehydrates the store's sentinel errors so errors.Is
// works across the wire.
func mapRemoteError(err error) error {
	if err == nil {
		return nil
	}
	var re *netmsg.RemoteError
	if !errors.As(err, &re) {
		return err
	}
	for _, sentinel := range []error{ErrNoNode, ErrNodeExists, ErrBadVersion, ErrCompacted, ErrBadPath, ErrStoreClosed, ErrNoSession, ErrEphemeral} {
		if strings.HasPrefix(re.Msg, sentinel.Error()) {
			return sentinel
		}
	}
	return err
}

// Create implements Coordinator.
func (c *Client) Create(path string, data []byte) (int64, error) {
	w := wire.NewWriter(len(path) + len(data) + 8)
	w.String(path)
	w.Bytes1(data)
	resp, err := c.c.Request("coord.create", w.Bytes())
	if err != nil {
		return 0, mapRemoteError(err)
	}
	return wire.NewReader(resp).Varint(), nil
}

// Set implements Coordinator.
func (c *Client) Set(path string, data []byte, expected int64) (int64, error) {
	w := wire.NewWriter(len(path) + len(data) + 16)
	w.String(path)
	w.Bytes1(data)
	w.Varint(expected)
	resp, err := c.c.Request("coord.set", w.Bytes())
	if err != nil {
		return 0, mapRemoteError(err)
	}
	return wire.NewReader(resp).Varint(), nil
}

// CreateOrSet implements Coordinator.
func (c *Client) CreateOrSet(path string, data []byte) (int64, error) {
	w := wire.NewWriter(len(path) + len(data) + 8)
	w.String(path)
	w.Bytes1(data)
	resp, err := c.c.Request("coord.createorset", w.Bytes())
	if err != nil {
		return 0, mapRemoteError(err)
	}
	return wire.NewReader(resp).Varint(), nil
}

// Get implements Coordinator.
func (c *Client) Get(path string) ([]byte, int64, error) {
	w := wire.NewWriter(len(path) + 4)
	w.String(path)
	resp, err := c.c.Request("coord.get", w.Bytes())
	if err != nil {
		return nil, 0, mapRemoteError(err)
	}
	r := wire.NewReader(resp)
	v := r.Varint()
	data := r.Bytes1()
	return data, v, r.Err()
}

// Exists implements Coordinator.
func (c *Client) Exists(path string) bool {
	w := wire.NewWriter(len(path) + 4)
	w.String(path)
	resp, err := c.c.Request("coord.exists", w.Bytes())
	if err != nil {
		return false
	}
	return wire.NewReader(resp).Bool()
}

// Children implements Coordinator.
func (c *Client) Children(path string) ([]string, error) {
	w := wire.NewWriter(len(path) + 4)
	w.String(path)
	resp, err := c.c.Request("coord.children", w.Bytes())
	if err != nil {
		return nil, mapRemoteError(err)
	}
	r := wire.NewReader(resp)
	n := r.Uvarint()
	names := make([]string, 0, n)
	for i := uint64(0); i < n; i++ {
		names = append(names, r.String())
	}
	return names, r.Err()
}

// Delete implements Coordinator.
func (c *Client) Delete(path string, expected int64) error {
	w := wire.NewWriter(len(path) + 12)
	w.String(path)
	w.Varint(expected)
	_, err := c.c.Request("coord.delete", w.Bytes())
	return mapRemoteError(err)
}

// Snapshot implements Coordinator. A transport failure yields an empty
// snapshot at cursor 0, which a watcher treats as "retry".
func (c *Client) Snapshot(prefix string) (map[string][]byte, uint64) {
	w := wire.NewWriter(len(prefix) + 4)
	w.String(prefix)
	resp, err := c.c.Request("coord.snapshot", w.Bytes())
	if err != nil {
		return nil, 0
	}
	r := wire.NewReader(resp)
	seq := r.Uint64()
	n := r.Uvarint()
	out := make(map[string][]byte, n)
	for i := uint64(0); i < n; i++ {
		path := r.String()
		out[path] = r.Bytes1()
	}
	if r.Err() != nil {
		return nil, 0
	}
	return out, seq
}

// CreateSession implements Coordinator.
func (c *Client) CreateSession(ttl time.Duration) (SessionID, error) {
	w := wire.NewWriter(12)
	w.Uvarint(uint64(ttl / time.Millisecond))
	resp, err := c.c.Request("coord.mksession", w.Bytes())
	if err != nil {
		return 0, mapRemoteError(err)
	}
	return SessionID(wire.NewReader(resp).Uint64()), nil
}

// Heartbeat implements Coordinator.
func (c *Client) Heartbeat(id SessionID) error {
	w := wire.NewWriter(8)
	w.Uint64(uint64(id))
	_, err := c.c.Request("coord.heartbeat", w.Bytes())
	return mapRemoteError(err)
}

// CloseSession implements Coordinator.
func (c *Client) CloseSession(id SessionID) error {
	w := wire.NewWriter(8)
	w.Uint64(uint64(id))
	_, err := c.c.Request("coord.rmsession", w.Bytes())
	return mapRemoteError(err)
}

// CreateEphemeral implements Coordinator.
func (c *Client) CreateEphemeral(path string, data []byte, owner SessionID) (int64, error) {
	w := wire.NewWriter(len(path) + len(data) + 16)
	w.String(path)
	w.Bytes1(data)
	w.Uint64(uint64(owner))
	resp, err := c.c.Request("coord.mkephemeral", w.Bytes())
	if err != nil {
		return 0, mapRemoteError(err)
	}
	return wire.NewReader(resp).Varint(), nil
}

// EventsSince implements Coordinator via long-polling.
func (c *Client) EventsSince(ctx context.Context, since uint64, prefix string, limit int, timeout time.Duration) ([]Event, uint64, error) {
	w := wire.NewWriter(len(prefix) + 24)
	w.Uint64(since)
	w.String(prefix)
	w.Uvarint(uint64(limit))
	w.Uvarint(uint64(timeout / time.Millisecond))
	// Give the transport twice the poll window before declaring failure.
	ctx, cancel := context.WithTimeout(ctx, 2*timeout+5*time.Second)
	defer cancel()
	resp, err := c.c.RequestCtx(ctx, "coord.events", w.Bytes())
	if err != nil {
		return nil, since, mapRemoteError(err)
	}
	r := wire.NewReader(resp)
	cursor := r.Uint64()
	n := r.Uvarint()
	evs := make([]Event, 0, n)
	for i := uint64(0); i < n; i++ {
		evs = append(evs, Event{
			Seq:     r.Uint64(),
			Type:    EventType(r.Uint8()),
			Path:    r.String(),
			Data:    r.Bytes1(),
			Version: r.Varint(),
		})
	}
	return evs, cursor, r.Err()
}

// Watcher streams events under a prefix to a callback, in order, from a
// background goroutine. On log compaction (a watcher that fell too far
// behind) OnReset is invoked so the owner can resync from Snapshot.
type Watcher struct {
	OnEvent func(Event)
	OnReset func(snapshot map[string][]byte)

	stop context.CancelFunc
	wg   sync.WaitGroup
}

// NewWatcher starts watching prefix from the given cursor.
func NewWatcher(c Coordinator, prefix string, since uint64, onEvent func(Event), onReset func(map[string][]byte)) *Watcher {
	ctx, stop := context.WithCancel(context.Background())
	w := &Watcher{OnEvent: onEvent, OnReset: onReset, stop: stop}
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		cursor := since
		for ctx.Err() == nil {
			evs, next, err := c.EventsSince(ctx, cursor, prefix, 1024, 500*time.Millisecond)
			switch {
			case ctx.Err() != nil:
				return
			case err == nil:
				cursor = next
				for _, ev := range evs {
					w.OnEvent(ev)
				}
			case errors.Is(err, ErrCompacted):
				snap, seq := c.Snapshot(prefix)
				cursor = seq
				if w.OnReset != nil {
					w.OnReset(snap)
				}
			case errors.Is(err, ErrStoreClosed):
				return
			default:
				// Transient transport failure: back off briefly.
				select {
				case <-ctx.Done():
					return
				case <-time.After(100 * time.Millisecond):
				}
			}
		}
	}()
	return w
}

// Stop ends the poll in flight and the watch loop, and waits for the
// loop to exit; no callback runs after Stop returns.
func (w *Watcher) Stop() {
	w.stop()
	w.wg.Wait()
}
