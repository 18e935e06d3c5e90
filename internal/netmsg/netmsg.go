// Package netmsg is VOLAP's messaging layer, standing in for ZeroMQ
// (§III-A): asynchronous request/reply with correlation IDs, multiplexed
// over a single connection per peer pair, with concurrent handler
// execution on the server side so one socket feeds many worker threads.
//
// Two transports share the code path: "tcp" for real multi-process
// deployments and "inproc" (net.Pipe behind a process-local registry) for
// tests and embedded clusters — mirroring ZeroMQ's tcp:// and inproc://
// endpoints.
package netmsg

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// MaxFrame bounds a single message (64 MiB) to catch corrupt length
// prefixes before they allocate unbounded memory.
const MaxFrame = 64 << 20

// frame types.
const (
	frameRequest  = 0
	frameResponse = 1
	frameError    = 2
)

// ErrClosed is returned for operations on a closed client or server.
var ErrClosed = errors.New("netmsg: closed")

// ErrTimeout is returned when a request deadline expires.
var ErrTimeout = errors.New("netmsg: request timeout")

// ErrConnLost fails requests that were in flight when the connection
// dropped. The client reconnects automatically on its next request, so
// callers that can safely re-issue the operation should retry.
var ErrConnLost = errors.New("netmsg: connection lost")

// RemoteError wraps an error string returned by a remote handler.
type RemoteError struct {
	Op  string
	Msg string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("netmsg: remote %s: %s", e.Op, e.Msg)
}

// Handler processes one request payload and returns the response payload.
// Handlers run concurrently. The context carries the request's trace ID
// (TraceIDFrom) and should be propagated into any downstream RPCs so one
// client operation stays correlatable across hops.
type Handler func(ctx context.Context, payload []byte) ([]byte, error)

// --- trace IDs -----------------------------------------------------------

// traceKey is the context key for the request-scoped trace ID.
type traceKey struct{}

// NewTraceID mints a random nonzero 64-bit trace ID.
func NewTraceID() uint64 {
	var b [8]byte
	for {
		if _, err := crand.Read(b[:]); err != nil {
			// crypto/rand never fails on supported platforms; fall back to
			// the time-seeded source rather than panic in a hot path.
			return uint64(rand.Int63()) | 1
		}
		if id := binary.LittleEndian.Uint64(b[:]); id != 0 {
			return id
		}
	}
}

// WithTraceID returns ctx carrying the trace ID. A zero ID clears it.
func WithTraceID(ctx context.Context, id uint64) context.Context {
	return context.WithValue(ctx, traceKey{}, id)
}

// TraceIDFrom extracts the trace ID from ctx (0 when untraced).
func TraceIDFrom(ctx context.Context) uint64 {
	id, _ := ctx.Value(traceKey{}).(uint64)
	return id
}

// EnsureTraceID returns ctx guaranteed to carry a nonzero trace ID,
// minting one if absent, along with the ID.
func EnsureTraceID(ctx context.Context) (context.Context, uint64) {
	if id := TraceIDFrom(ctx); id != 0 {
		return ctx, id
	}
	id := NewTraceID()
	return WithTraceID(ctx, id), id
}

// --- inproc registry -----------------------------------------------------

var inproc = struct {
	sync.Mutex
	listeners map[string]*inprocListener
}{listeners: make(map[string]*inprocListener)}

type inprocListener struct {
	name   string
	conns  chan net.Conn
	closed chan struct{}
	once   sync.Once
}

func (l *inprocListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.closed:
		return nil, ErrClosed
	}
}

func (l *inprocListener) Close() error {
	l.once.Do(func() {
		close(l.closed)
		inproc.Lock()
		if inproc.listeners[l.name] == l {
			delete(inproc.listeners, l.name)
		}
		inproc.Unlock()
	})
	return nil
}

type inprocAddr string

func (a inprocAddr) Network() string { return "inproc" }
func (a inprocAddr) String() string  { return string(a) }

func (l *inprocListener) Addr() net.Addr { return inprocAddr("inproc://" + l.name) }

// --- server --------------------------------------------------------------

// Server accepts connections and dispatches requests to handlers.
type Server struct {
	mu       sync.RWMutex
	handlers map[string]Handler
	ln       net.Listener
	wg       sync.WaitGroup
	closed   atomic.Bool
	conns    map[net.Conn]struct{}

	// ctx is every handler's parent context; Close cancels it so the
	// handlers it waits for stop blocking.
	ctx    context.Context
	cancel context.CancelFunc

	fault  *FaultInjector
	party  string
	panics *metrics.CounterVec // netmsg_handler_panics_total{op}; nil without SetMetrics
}

// NewServer returns a server with no handlers registered.
func NewServer() *Server {
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{handlers: make(map[string]Handler), conns: make(map[net.Conn]struct{}),
		ctx: ctx, cancel: cancel}
}

// Handle registers the handler for an operation name. It must be called
// before Listen.
func (s *Server) Handle(op string, h Handler) {
	s.mu.Lock()
	s.handlers[op] = h
	s.mu.Unlock()
}

// SetFaults attaches a fault injector to the serving side under the
// given party label. Incoming requests and outgoing responses pass
// through the injector. Call before Listen; a nil injector disables
// injection.
func (s *Server) SetFaults(f *FaultInjector, party string) {
	s.mu.Lock()
	s.fault, s.party = f, party
	s.mu.Unlock()
}

// SetMetrics counts handler panics in reg as
// netmsg_handler_panics_total{op}. Call before Listen.
func (s *Server) SetMetrics(reg *metrics.Registry) {
	s.mu.Lock()
	s.panics = reg.Counter("netmsg_handler_panics_total", "op")
	s.mu.Unlock()
}

// Listen binds the server and starts serving in the background. The
// address is either "inproc://name" or a TCP address like
// "127.0.0.1:0"; the bound address is returned (useful with port 0).
func (s *Server) Listen(addr string) (string, error) {
	if s.closed.Load() {
		return "", ErrClosed
	}
	if name, ok := strings.CutPrefix(addr, "inproc://"); ok {
		l := &inprocListener{name: name, conns: make(chan net.Conn, 16), closed: make(chan struct{})}
		inproc.Lock()
		if _, dup := inproc.listeners[name]; dup {
			inproc.Unlock()
			return "", fmt.Errorf("netmsg: inproc name %q already bound", name)
		}
		inproc.listeners[name] = l
		inproc.Unlock()
		s.ln = l
	} else {
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			return "", err
		}
		s.ln = ln
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s.Addr(), nil
}

// Addr returns the server's bound address.
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed.Load() {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	var writeMu sync.Mutex
	s.mu.RLock()
	fault, party, panics := s.fault, s.party, s.panics
	s.mu.RUnlock()
	peer := conn.RemoteAddr().String()
	for {
		corrID, traceID, ftype, op, payload, err := readFrame(conn)
		if err != nil {
			return
		}
		if ftype != frameRequest {
			continue // servers only consume requests
		}
		dispatch := 1
		if fault != nil {
			action, delay := fault.act(FaultPoint{Party: party, Peer: peer, Op: op, Kind: KindRequest})
			switch action {
			case FaultDrop:
				continue // swallow the request; the client times out
			case FaultSever:
				return // defer closes the connection
			case FaultDelay:
				time.Sleep(delay)
			case FaultDuplicate:
				dispatch = 2
			}
		}
		s.mu.RLock()
		h := s.handlers[op]
		s.mu.RUnlock()
		for i := 0; i < dispatch; i++ {
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				ctx := s.ctx
				if traceID != 0 {
					ctx = WithTraceID(ctx, traceID)
				}
				var resp []byte
				var herr error
				if h == nil {
					herr = fmt.Errorf("unknown operation %q", op)
				} else {
					resp, herr = callHandler(ctx, h, op, payload, panics)
				}
				if fault != nil {
					action, delay := fault.act(FaultPoint{Party: party, Peer: peer, Op: op, Kind: KindResponse})
					switch action {
					case FaultDrop:
						return // response vanishes; the client times out
					case FaultSever:
						conn.Close()
						return
					case FaultDelay:
						time.Sleep(delay)
					}
				}
				writeMu.Lock()
				defer writeMu.Unlock()
				if herr != nil {
					_ = writeFrame(conn, corrID, traceID, frameError, op, []byte(herr.Error()))
					return
				}
				_ = writeFrame(conn, corrID, traceID, frameResponse, "", resp)
			}()
		}
	}
}

// callHandler runs h and turns a panic into an error reply naming the
// op, so one bad request fails alone instead of ending the process.
func callHandler(ctx context.Context, h Handler, op string, payload []byte, panics *metrics.CounterVec) (resp []byte, err error) {
	defer func() {
		if p := recover(); p != nil {
			if panics != nil {
				panics.Inc(op)
			}
			log.Printf("netmsg: handler %q panicked: %v\n%s", op, p, debug.Stack())
			resp, err = nil, fmt.Errorf("handler %q panicked: %v", op, p)
		}
	}()
	return h(ctx, payload)
}

// Close stops the server, closes all connections and cancels the
// context of every handler still running, then waits for them.
func (s *Server) Close() {
	if !s.closed.CompareAndSwap(false, true) {
		return
	}
	if s.ln != nil {
		s.ln.Close()
	}
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.cancel()
	s.wg.Wait()
}

// --- client --------------------------------------------------------------

// pendingCall tracks one in-flight request. conn is the connection the
// request was written to, so a dead connection fails only its own calls.
type pendingCall struct {
	ch   chan callResult
	conn net.Conn
}

type callResult struct {
	payload []byte
	err     error
}

// DialOpts tunes a client connection's deadline and reconnection policy.
// The zero value means: no default deadline, 5 s per connection attempt,
// reconnect backoff capped at 250 ms.
type DialOpts struct {
	// DefaultTimeout bounds any request whose context carries no deadline
	// of its own (0 = unbounded, the historical behavior).
	DefaultTimeout time.Duration
	// DialTimeout bounds one TCP connection attempt (default 5 s).
	DialTimeout time.Duration
	// MaxReconnectDelay caps the exponential backoff between reconnect
	// attempts (default 250 ms). The first retry starts at 5 ms and each
	// delay is jittered by ±50% so peers reconnecting together don't
	// stampede the listener.
	MaxReconnectDelay time.Duration
	// MaxDialAttempts bounds how many connection attempts one request
	// makes before giving up (default 3). Failing fast lets the caller's
	// routing layer refresh and try a different peer instead of burning
	// the whole deadline on one dead address.
	MaxDialAttempts int
	// Metrics, when non-nil, receives per-op request latency
	// (netmsg_request_seconds{op}), reconnect counts
	// (netmsg_reconnects_total) and dial failures
	// (netmsg_dial_failures_total) for this client.
	Metrics *metrics.Registry
	// Fault, when non-nil, intercepts this client's dials and frames for
	// chaos testing; Party labels the endpoint in fault points (defaults
	// to "client").
	Fault *FaultInjector
	Party string
}

func (o *DialOpts) fill() {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.MaxReconnectDelay <= 0 {
		o.MaxReconnectDelay = 250 * time.Millisecond
	}
	if o.MaxDialAttempts <= 0 {
		o.MaxDialAttempts = 3
	}
	if o.Party == "" {
		o.Party = "client"
	}
}

// Client is a connection to a Server. It is safe for concurrent use;
// requests are multiplexed by correlation ID. After a connection failure
// the next request transparently re-dials with exponential backoff;
// requests that were in flight when the connection dropped fail with
// ErrConnLost (the layer above decides whether re-issuing is safe).
type Client struct {
	addr    string
	opts    DialOpts
	writeMu sync.Mutex

	mu      sync.Mutex
	conn    net.Conn // nil when disconnected
	pending map[uint64]*pendingCall
	nextID  uint64
	closed  bool

	dialMu sync.Mutex // serializes reconnection attempts

	// instrumentation (nil when opts.Metrics is nil)
	reqLatency   *metrics.HistogramVec
	reconnects   *metrics.Counter
	dialFailures *metrics.Counter
}

// Dial connects to addr ("inproc://name" or a TCP address) with default
// options.
func Dial(addr string) (*Client, error) {
	return DialOptions(addr, DialOpts{})
}

// DialOptions connects to addr with an explicit deadline/reconnect policy.
func DialOptions(addr string, opts DialOpts) (*Client, error) {
	opts.fill()
	cl := &Client{addr: addr, opts: opts, pending: make(map[uint64]*pendingCall)}
	if reg := opts.Metrics; reg != nil {
		cl.reqLatency = reg.Histogram("netmsg_request_seconds", "op")
		cl.reconnects = reg.Counter("netmsg_reconnects_total").With()
		cl.dialFailures = reg.Counter("netmsg_dial_failures_total").With()
	}
	conn, err := cl.dialConn()
	if err != nil {
		if cl.dialFailures != nil {
			cl.dialFailures.Inc()
		}
		return nil, err
	}
	cl.mu.Lock()
	cl.conn = conn
	cl.mu.Unlock()
	go cl.readLoop(conn)
	return cl, nil
}

// dialConn establishes one raw connection, consulting the client's
// fault injector first so partitioned or dial-blocked pairs fail without
// touching the transport.
func (c *Client) dialConn() (net.Conn, error) {
	if f := c.opts.Fault; f != nil {
		if err := f.dial(c.opts.Party, c.addr); err != nil {
			return nil, err
		}
	}
	return dialConn(c.addr, c.opts.DialTimeout)
}

// dialConn establishes one raw connection.
func dialConn(addr string, timeout time.Duration) (net.Conn, error) {
	if name, ok := strings.CutPrefix(addr, "inproc://"); ok {
		inproc.Lock()
		l := inproc.listeners[name]
		inproc.Unlock()
		if l == nil {
			return nil, fmt.Errorf("netmsg: no inproc listener %q", name)
		}
		c1, c2 := net.Pipe()
		select {
		case l.conns <- c2:
		case <-l.closed:
			return nil, ErrClosed
		}
		return c1, nil
	}
	return net.DialTimeout("tcp", addr, timeout)
}

// ensureConn returns a live connection, re-dialing with exponential
// backoff + jitter until ctx expires. Only one goroutine dials at a time;
// the rest wait on dialMu and reuse the fresh connection.
func (c *Client) ensureConn(ctx context.Context) (net.Conn, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	if conn := c.conn; conn != nil {
		c.mu.Unlock()
		return conn, nil
	}
	c.mu.Unlock()

	c.dialMu.Lock()
	defer c.dialMu.Unlock()
	// A concurrent request may have reconnected while we waited.
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	if conn := c.conn; conn != nil {
		c.mu.Unlock()
		return conn, nil
	}
	c.mu.Unlock()

	delay := 5 * time.Millisecond
	for attempt := 1; ; attempt++ {
		conn, err := c.dialConn()
		if err == nil {
			c.mu.Lock()
			if c.closed {
				c.mu.Unlock()
				conn.Close()
				return nil, ErrClosed
			}
			c.conn = conn
			c.mu.Unlock()
			if c.reconnects != nil {
				c.reconnects.Inc()
			}
			go c.readLoop(conn)
			return conn, nil
		}
		if c.dialFailures != nil {
			c.dialFailures.Inc()
		}
		if attempt >= c.opts.MaxDialAttempts {
			return nil, fmt.Errorf("netmsg: dial %s: %w", c.addr, err)
		}
		// Jittered exponential backoff, never sleeping past the deadline.
		sleep := delay/2 + time.Duration(rand.Int63n(int64(delay)))
		if dl, ok := ctx.Deadline(); ok && time.Until(dl) < sleep {
			return nil, fmt.Errorf("%w: %s unreachable: %v", ErrTimeout, c.addr, err)
		}
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("netmsg: dial %s: %w (last error: %v)", c.addr, ctx.Err(), err)
		case <-time.After(sleep):
		}
		if delay *= 2; delay > c.opts.MaxReconnectDelay {
			delay = c.opts.MaxReconnectDelay
		}
	}
}

// dropConn discards a connection observed to be broken so the next
// request reconnects. In-flight requests on it are failed by its
// readLoop.
func (c *Client) dropConn(conn net.Conn) {
	conn.Close()
	c.mu.Lock()
	if c.conn == conn {
		c.conn = nil
	}
	c.mu.Unlock()
}

func (c *Client) readLoop(conn net.Conn) {
	for {
		corrID, _, ftype, op, payload, err := readFrame(conn)
		if err != nil {
			c.failConn(conn)
			return
		}
		if f := c.opts.Fault; f != nil {
			action, delay := f.act(FaultPoint{Party: c.opts.Party, Peer: c.addr, Op: op, Kind: KindResponse})
			switch action {
			case FaultDrop:
				continue // discard the response; the caller times out
			case FaultSever:
				c.failConn(conn)
				return
			case FaultDelay:
				time.Sleep(delay)
			}
		}
		c.mu.Lock()
		call := c.pending[corrID]
		delete(c.pending, corrID)
		c.mu.Unlock()
		if call == nil {
			continue
		}
		switch ftype {
		case frameResponse:
			call.ch <- callResult{payload: payload}
		case frameError:
			call.ch <- callResult{err: &RemoteError{Op: op, Msg: string(payload)}}
		}
	}
}

// failConn fails every request in flight on the broken connection and
// clears it so the next request reconnects.
func (c *Client) failConn(conn net.Conn) {
	conn.Close()
	c.mu.Lock()
	for id, call := range c.pending {
		if call.conn == conn {
			delete(c.pending, id)
			call.ch <- callResult{err: ErrConnLost}
		}
	}
	if c.conn == conn {
		c.conn = nil
	}
	c.mu.Unlock()
}

// Request sends op with payload and waits for the response, bounded by
// the client's default deadline (if configured).
func (c *Client) Request(op string, payload []byte) ([]byte, error) {
	return c.RequestCtx(context.Background(), op, payload)
}

// RequestTimeout is Request with an explicit deadline (0 falls back to
// the client default).
func (c *Client) RequestTimeout(op string, payload []byte, timeout time.Duration) ([]byte, error) {
	if timeout <= 0 {
		return c.RequestCtx(context.Background(), op, payload)
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	return c.RequestCtx(ctx, op, payload)
}

// RequestCtx sends op with payload and waits for the response until ctx
// is done. A context with no deadline inherits the client's
// DefaultTimeout. Deadline expiry returns ErrTimeout; cancellation
// returns ctx.Err(). Either way the pending call is abandoned
// immediately — a late response is discarded by the read loop. A trace
// ID on ctx (WithTraceID) travels in the frame header and surfaces in
// the remote handler's context.
func (c *Client) RequestCtx(ctx context.Context, op string, payload []byte) ([]byte, error) {
	if c.reqLatency != nil {
		defer c.reqLatency.With(op).Time()()
	}
	if _, ok := ctx.Deadline(); !ok && c.opts.DefaultTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.opts.DefaultTimeout)
		defer cancel()
	}
	if err := ctx.Err(); err != nil {
		return nil, ctxErr(err)
	}
	conn, err := c.ensureConn(ctx)
	if err != nil {
		return nil, err
	}

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	c.nextID++
	id := c.nextID
	call := &pendingCall{ch: make(chan callResult, 1), conn: conn}
	c.pending[id] = call
	c.mu.Unlock()

	writes := 1
	if f := c.opts.Fault; f != nil {
		action, delay := f.act(FaultPoint{Party: c.opts.Party, Peer: c.addr, Op: op, Kind: KindRequest})
		switch action {
		case FaultDrop:
			writes = 0 // pretend it was sent; the deadline fires below
		case FaultDuplicate:
			writes = 2
		case FaultSever:
			c.mu.Lock()
			delete(c.pending, id)
			c.mu.Unlock()
			c.dropConn(conn)
			return nil, fmt.Errorf("%w (%w)", ErrConnLost, ErrInjected)
		case FaultDelay:
			select {
			case <-ctx.Done():
				c.mu.Lock()
				delete(c.pending, id)
				c.mu.Unlock()
				return nil, ctxErr(ctx.Err())
			case <-time.After(delay):
			}
		}
	}
	for i := 0; i < writes; i++ {
		c.writeMu.Lock()
		err = writeFrame(conn, id, TraceIDFrom(ctx), frameRequest, op, payload)
		c.writeMu.Unlock()
		if err != nil {
			c.mu.Lock()
			delete(c.pending, id)
			c.mu.Unlock()
			c.dropConn(conn)
			return nil, err
		}
	}

	select {
	case res := <-call.ch:
		return res.payload, res.err
	case <-ctx.Done():
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return nil, ctxErr(ctx.Err())
	}
}

// ctxErr maps context termination onto the package's error set.
func ctxErr(err error) error {
	if errors.Is(err, context.DeadlineExceeded) {
		return ErrTimeout
	}
	return err
}

// Close tears down the connection; in-flight requests fail and future
// requests return ErrClosed (no reconnection).
func (c *Client) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	conn := c.conn
	c.conn = nil
	for id, call := range c.pending {
		delete(c.pending, id)
		call.ch <- callResult{err: ErrClosed}
	}
	c.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
}

// --- framing -------------------------------------------------------------

// writeFrame emits one frame: u32 body length, then u64 corrID,
// u64 traceID, u8 type, u16 op length, op bytes, payload bytes. The
// trace ID rides every frame so one client operation is correlatable
// across every process it touches; zero means untraced. It takes an
// io.Writer (not net.Conn) so the encoder is fuzzable in isolation.
func writeFrame(w io.Writer, corrID, traceID uint64, ftype byte, op string, payload []byte) error {
	if len(op) > 1<<16-1 {
		// The header stores the op length in 16 bits; anything longer
		// would silently truncate and desynchronize the stream (found by
		// FuzzFrameRoundTrip).
		return fmt.Errorf("netmsg: op of %d bytes exceeds header field", len(op))
	}
	body := 8 + 8 + 1 + 2 + len(op) + len(payload)
	if body > MaxFrame {
		return fmt.Errorf("netmsg: frame of %d bytes exceeds limit", body)
	}
	buf := make([]byte, 4+body)
	binary.LittleEndian.PutUint32(buf, uint32(body))
	binary.LittleEndian.PutUint64(buf[4:], corrID)
	binary.LittleEndian.PutUint64(buf[12:], traceID)
	buf[20] = ftype
	binary.LittleEndian.PutUint16(buf[21:], uint16(len(op)))
	copy(buf[23:], op)
	copy(buf[23+len(op):], payload)
	_, err := w.Write(buf)
	return err
}

// readFrame reads one frame written by writeFrame.
func readFrame(r io.Reader) (corrID, traceID uint64, ftype byte, op string, payload []byte, err error) {
	var hdr [4]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return
	}
	body := binary.LittleEndian.Uint32(hdr[:])
	if body < 19 || body > MaxFrame {
		err = fmt.Errorf("netmsg: invalid frame length %d", body)
		return
	}
	buf := make([]byte, body)
	if _, err = io.ReadFull(r, buf); err != nil {
		return
	}
	corrID = binary.LittleEndian.Uint64(buf)
	traceID = binary.LittleEndian.Uint64(buf[8:])
	ftype = buf[16]
	opLen := int(binary.LittleEndian.Uint16(buf[17:]))
	if 19+opLen > int(body) {
		err = fmt.Errorf("netmsg: invalid op length %d", opLen)
		return
	}
	op = string(buf[19 : 19+opLen])
	payload = buf[19+opLen:]
	return
}
