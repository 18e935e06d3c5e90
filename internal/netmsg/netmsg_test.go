package netmsg

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
)

// startEcho starts a server with echo and error handlers on the given
// address and returns its bound address.
func startEcho(t *testing.T, addr string) (*Server, string) {
	t.Helper()
	s := NewServer()
	s.Handle("echo", func(_ context.Context, p []byte) ([]byte, error) { return p, nil })
	s.Handle("fail", func(_ context.Context, p []byte) ([]byte, error) { return nil, errors.New("boom") })
	s.Handle("slow", func(_ context.Context, p []byte) ([]byte, error) {
		time.Sleep(200 * time.Millisecond)
		return p, nil
	})
	bound, err := s.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s, bound
}

func TestRequestReplyTCP(t *testing.T) {
	_, addr := startEcho(t, "127.0.0.1:0")
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.Request("echo", []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp, []byte("hello")) {
		t.Fatalf("resp = %q", resp)
	}
}

func TestRequestReplyInproc(t *testing.T) {
	_, addr := startEcho(t, "inproc://echo-test")
	if addr != "inproc://echo-test" {
		t.Fatalf("bound addr = %q", addr)
	}
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.Request("echo", []byte("ping"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "ping" {
		t.Fatalf("resp = %q", resp)
	}
}

func TestRemoteError(t *testing.T) {
	_, addr := startEcho(t, "inproc://err-test")
	c, _ := Dial(addr)
	defer c.Close()
	_, err := c.Request("fail", nil)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want RemoteError", err)
	}
	if re.Msg != "boom" || re.Error() == "" {
		t.Errorf("remote error = %+v", re)
	}
}

func TestUnknownOp(t *testing.T) {
	_, addr := startEcho(t, "inproc://unknown-test")
	c, _ := Dial(addr)
	defer c.Close()
	if _, err := c.Request("nope", nil); err == nil {
		t.Fatal("unknown op should fail")
	}
}

func TestTimeout(t *testing.T) {
	_, addr := startEcho(t, "inproc://timeout-test")
	c, _ := Dial(addr)
	defer c.Close()
	_, err := c.RequestTimeout("slow", nil, 20*time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	// A later request on the same client still works (late response to
	// the abandoned call is discarded).
	resp, err := c.RequestTimeout("echo", []byte("next"), time.Second)
	if err != nil || string(resp) != "next" {
		t.Fatalf("follow-up request: %q, %v", resp, err)
	}
}

// TestConcurrentRequests multiplexes many concurrent requests over one
// client and checks responses are correlated correctly.
func TestConcurrentRequests(t *testing.T) {
	for _, addr := range []string{"127.0.0.1:0", "inproc://conc-test"} {
		_, bound := startEcho(t, addr)
		c, err := Dial(bound)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for i := 0; i < 50; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				msg := []byte(fmt.Sprintf("msg-%d", i))
				resp, err := c.Request("echo", msg)
				if err != nil {
					t.Errorf("request %d: %v", i, err)
					return
				}
				if !bytes.Equal(resp, msg) {
					t.Errorf("request %d: got %q", i, resp)
				}
			}(i)
		}
		wg.Wait()
		c.Close()
	}
}

func TestMultipleClients(t *testing.T) {
	_, addr := startEcho(t, "inproc://multi-test")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for j := 0; j < 20; j++ {
				msg := []byte(fmt.Sprintf("c%d-%d", i, j))
				resp, err := c.Request("echo", msg)
				if err != nil || !bytes.Equal(resp, msg) {
					t.Errorf("client %d: %q %v", i, resp, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("inproc://nonexistent"); err == nil {
		t.Error("dialing unknown inproc name should fail")
	}
}

func TestDuplicateInprocName(t *testing.T) {
	startEcho(t, "inproc://dup-test")
	s2 := NewServer()
	if _, err := s2.Listen("inproc://dup-test"); err == nil {
		t.Error("duplicate inproc bind should fail")
	}
	s2.Close()
}

func TestClientCloseFailsPending(t *testing.T) {
	_, addr := startEcho(t, "inproc://close-test")
	c, _ := Dial(addr)
	done := make(chan error, 1)
	go func() {
		_, err := c.Request("slow", nil)
		done <- err
	}()
	time.Sleep(30 * time.Millisecond)
	c.Close()
	if err := <-done; err == nil {
		t.Error("pending request should fail on close")
	}
	if _, err := c.Request("echo", nil); !errors.Is(err, ErrClosed) {
		t.Errorf("request after close = %v, want ErrClosed", err)
	}
}

func TestServerCloseUnblocksClients(t *testing.T) {
	s, addr := startEcho(t, "inproc://sclose-test")
	c, _ := Dial(addr)
	defer c.Close()
	done := make(chan error, 1)
	go func() {
		_, err := c.Request("slow", nil)
		done <- err
	}()
	time.Sleep(30 * time.Millisecond)
	s.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Error("request should fail when server closes")
		}
	case <-time.After(2 * time.Second):
		t.Error("request did not unblock on server close")
	}
}

// TestCloseCancelsHandlers: Close cancels the context of the handlers
// it waits for, so a handler blocked on its context (a long poll whose
// client has gone) does not hold Close up. The trace ID survives.
func TestCloseCancelsHandlers(t *testing.T) {
	s := NewServer()
	started := make(chan uint64, 1)
	s.Handle("block", func(ctx context.Context, _ []byte) ([]byte, error) {
		started <- TraceIDFrom(ctx)
		select {
		case <-ctx.Done():
		case <-time.After(5 * time.Second):
		}
		return nil, nil
	})
	addr, err := s.Listen("inproc://close-cancels-test")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	go c.RequestCtx(WithTraceID(context.Background(), 77), "block", nil)
	select {
	case id := <-started:
		if id != 77 {
			t.Fatalf("handler trace ID = %d, want 77", id)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("handler never started")
	}
	start := time.Now()
	s.Close()
	if d := time.Since(start); d >= time.Second {
		t.Fatalf("Close took %v waiting for a blocked handler", d)
	}
}

func TestLargePayload(t *testing.T) {
	_, addr := startEcho(t, "inproc://large-test")
	c, _ := Dial(addr)
	defer c.Close()
	big := make([]byte, 1<<20)
	for i := range big {
		big[i] = byte(i)
	}
	resp, err := c.Request("echo", big)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp, big) {
		t.Fatal("large payload corrupted")
	}
}

func TestFrameTooLarge(t *testing.T) {
	_, addr := startEcho(t, "inproc://frame-test")
	c, _ := Dial(addr)
	defer c.Close()
	if _, err := c.Request("echo", make([]byte, MaxFrame)); err == nil {
		t.Error("oversized frame should fail")
	}
}

func BenchmarkRequestInproc(b *testing.B) {
	s := NewServer()
	s.Handle("echo", func(_ context.Context, p []byte) ([]byte, error) { return p, nil })
	if _, err := s.Listen("inproc://bench"); err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	c, err := Dial("inproc://bench")
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	payload := make([]byte, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Request("echo", payload); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRequestCtxCancel checks an in-flight request unblocks as soon as
// its context is canceled, and the client survives for later requests.
func TestRequestCtxCancel(t *testing.T) {
	_, addr := startEcho(t, "inproc://ctx-cancel-test")
	c, _ := Dial(addr)
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.RequestCtx(ctx, "slow", nil)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(time.Second):
		t.Fatal("RequestCtx did not unblock on cancel")
	}
	// The client is still usable; the late reply is discarded.
	resp, err := c.RequestTimeout("echo", []byte("after"), time.Second)
	if err != nil || string(resp) != "after" {
		t.Fatalf("follow-up request: %q, %v", resp, err)
	}
}

// TestRequestCtxDeadline checks a context deadline maps to ErrTimeout.
func TestRequestCtxDeadline(t *testing.T) {
	_, addr := startEcho(t, "inproc://ctx-deadline-test")
	c, _ := Dial(addr)
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := c.RequestCtx(ctx, "slow", nil); !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

// TestReconnectAfterServerRestart checks the client transparently
// re-dials after its server goes away and comes back on the same
// address: pending requests fail with ErrConnLost, later requests
// succeed against the restarted server.
func TestReconnectAfterServerRestart(t *testing.T) {
	s1, addr := startEcho(t, "inproc://reconnect-test")
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Request("echo", []byte("one")); err != nil {
		t.Fatal(err)
	}

	s1.Close()
	// With the server gone, a request fails: the dead connection is
	// detected and bounded re-dial attempts find nobody listening.
	if _, err := c.RequestTimeout("echo", nil, 300*time.Millisecond); err == nil {
		t.Fatal("request against closed server should fail")
	}

	// Restart on the same name; the next request re-dials and succeeds.
	_, addr2 := startEcho(t, "inproc://reconnect-test")
	if addr2 != addr {
		t.Fatalf("restart bound %q, want %q", addr2, addr)
	}
	resp, err := c.RequestTimeout("echo", []byte("two"), time.Second)
	if err != nil {
		t.Fatalf("request after restart: %v", err)
	}
	if string(resp) != "two" {
		t.Fatalf("resp = %q", resp)
	}
}

// TestDefaultTimeout checks DialOpts.DefaultTimeout bounds requests
// whose context carries no deadline.
func TestDefaultTimeout(t *testing.T) {
	_, addr := startEcho(t, "inproc://default-timeout-test")
	c, err := DialOptions(addr, DialOpts{DefaultTimeout: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	_, err = c.RequestCtx(context.Background(), "slow", nil)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if d := time.Since(start); d > 150*time.Millisecond {
		t.Fatalf("default timeout took %v", d)
	}
}

// TestHandlerPanicIsErrorReply requires a panicking handler to answer
// its caller with an error naming the op, count the panic, and leave
// the connection serving: the next request on it succeeds.
func TestHandlerPanicIsErrorReply(t *testing.T) {
	reg := metrics.NewRegistry()
	s := NewServer()
	s.SetMetrics(reg)
	s.Handle("boom", func(context.Context, []byte) ([]byte, error) { panic("bad request") })
	s.Handle("echo", func(_ context.Context, p []byte) ([]byte, error) { return p, nil })
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.RequestTimeout("boom", nil, 5*time.Second)
	var re *RemoteError
	if !errors.As(err, &re) || !strings.Contains(re.Msg, `"boom" panicked: bad request`) {
		t.Fatalf("panicking handler: err = %v, want a RemoteError naming the op", err)
	}
	resp, err := c.RequestTimeout("echo", []byte("still here"), 5*time.Second)
	if err != nil || string(resp) != "still here" {
		t.Fatalf("request after the panic: %q, %v", resp, err)
	}
	if got := reg.Counter("netmsg_handler_panics_total", "op").With("boom").Count(); got != 1 {
		t.Errorf("netmsg_handler_panics_total{op=boom} = %d, want 1", got)
	}
}
