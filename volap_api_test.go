package volap

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/netmsg"
	"repro/internal/wire"
)

// TestConnectHandshake checks Connect learns the schema dimension count
// and config fingerprint from the server.hello handshake — no out-of-band
// dims parameter.
func TestConnectHandshake(t *testing.T) {
	c, err := Start(Options{Schema: TPCDSSchema(), BalanceInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	cl, err := Connect(c.ServerAddr(0))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if got, want := cl.Dims(), c.Schema().NumDims(); got != want {
		t.Fatalf("handshake dims = %d, want %d", got, want)
	}
	if cl.ConfigHash() == 0 {
		t.Fatal("handshake config hash = 0")
	}
	if cl.ConfigHash() != c.Schema().Fingerprint() {
		t.Fatalf("config hash = %d, want schema fingerprint %d", cl.ConfigHash(), c.Schema().Fingerprint())
	}
	gen := NewGenerator(c.Schema(), 1, 0)
	if err := cl.InsertBatchNoCtx(gen.Items(50)); err != nil {
		t.Fatal(err)
	}
	res, err := cl.QueryNoCtx(AllRect(c.Schema()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Agg.Count != 50 {
		t.Fatalf("count = %d, want 50", res.Agg.Count)
	}
}

// TestClientTimeoutWedgedServer checks the end-to-end deadline: a server
// that accepts a query but never replies makes the client return
// ErrTimeout within the session's request timeout, not hang.
func TestClientTimeoutWedgedServer(t *testing.T) {
	stub := netmsg.NewServer()
	block := make(chan struct{})
	stub.Handle("server.hello", func(context.Context, []byte) ([]byte, error) {
		w := wire.NewWriter(16)
		w.String("wedged")
		w.Uvarint(2) // dims
		w.Uint64(0)  // config hash
		return w.Bytes(), nil
	})
	stub.Handle("server.query", func(_ context.Context, p []byte) ([]byte, error) { <-block; return nil, nil })
	addr, err := stub.Listen("inproc://wedged-server-test")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stub.Close)
	t.Cleanup(func() { close(block) })

	cl, err := Connect(addr, WithRequestTimeout(100*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	schema := twoDimSchema(t)
	start := time.Now()
	_, err = cl.Query(context.Background(), AllRect(schema))
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("query took %v, deadline was 100ms", d)
	}

	// An explicit context deadline takes precedence and cancels too.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := cl.Query(ctx, AllRect(schema)); !errors.Is(err, ErrTimeout) {
		t.Fatalf("ctx deadline err = %v, want ErrTimeout", err)
	}
}

func twoDimSchema(t *testing.T) *Schema {
	t.Helper()
	a, err := NewDimension("A", Level{Name: "L", Fanout: 8})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewDimension("B", Level{Name: "L", Fanout: 8})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSchema(a, b)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestOptionsValidation checks defaults() rejects nonsense and fills the
// documented defaults.
func TestOptionsValidation(t *testing.T) {
	schema := TPCDSSchema()
	bad := []Options{
		{},                                      // no schema
		{Schema: schema, Workers: -1},           // negative workers
		{Schema: schema, Servers: -2},           // negative servers
		{Schema: schema, Servers: 1},            // servers without workers: Workers stays 0
		{Schema: schema, RequestTimeout: -1},    // negative timeout
		{Schema: schema, MaxRetries: -3},        // negative retries
		{Schema: schema, Transport: "carrier"},  // unknown transport
		{Schema: schema, ReplicationFactor: -1}, // negative RF
		{Schema: schema, ReplicationFactor: 3},  // RF beyond the default 2 workers
		{Schema: schema, Workers: 2, ReplicationFactor: 2, Durability: DurabilitySync}, // RF>1 without DataDir
		{Schema: schema, Workers: 2, ReplicationFactor: 2},                             // RF>1 without durability
	}
	for i, o := range bad {
		if err := o.defaults(); err == nil {
			t.Errorf("case %d: options %+v accepted", i, o)
		}
	}
	good := Options{Schema: schema}
	if err := good.defaults(); err != nil {
		t.Fatal(err)
	}
	if good.RequestTimeout != DefaultRequestTimeout || good.MaxRetries != DefaultMaxRetries {
		t.Fatalf("defaults: timeout %v retries %d", good.RequestTimeout, good.MaxRetries)
	}
	if good.Workers != 2 || good.Servers != 1 {
		t.Fatalf("defaults: workers %d servers %d", good.Workers, good.Servers)
	}
	if good.ReplicationFactor != 1 {
		t.Fatalf("defaults: replication factor %d, want 1", good.ReplicationFactor)
	}
	replicated := Options{Schema: schema, Workers: 3, ReplicationFactor: 2,
		Durability: DurabilitySync, DataDir: t.TempDir()}
	if err := replicated.defaults(); err != nil {
		t.Fatalf("RF=2 with durability rejected: %v", err)
	}
}

// TestMapRemoteError checks typed errors survive the RPC boundary: the
// server serializes them as message text and the client maps them back.
func TestMapRemoteError(t *testing.T) {
	cases := []struct {
		msg  string
		want error
	}{
		{"volap: unavailable: shard 3 after 4 attempts: dial failed", ErrUnavailable},
		{"netmsg: request timeout", ErrTimeout},
		{"volap: stale route: shard 1", ErrStaleRoute},
	}
	for _, c := range cases {
		got := mapRemoteError(&netmsg.RemoteError{Op: "server.query", Msg: c.msg})
		if !errors.Is(got, c.want) {
			t.Errorf("mapRemoteError(%q) = %v, want %v", c.msg, got, c.want)
		}
	}
	plain := &netmsg.RemoteError{Op: "server.query", Msg: "schema: point out of range"}
	if got := mapRemoteError(plain); !errors.As(got, new(*netmsg.RemoteError)) {
		t.Errorf("plain remote error remapped to %v", got)
	}
	if got := mapRemoteError(nil); got != nil {
		t.Errorf("nil error mapped to %v", got)
	}
}
