package volap_test

// Process-level integration test: builds the real binaries and boots a
// full multi-process VOLAP deployment over TCP — coordination service,
// two workers, one server, the manager — then drives it with the CLI
// client library. This is the closest in-repo equivalent of the paper's
// EC2 deployment topology.

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	volap "repro"

	"repro/internal/coord"
	"repro/internal/image"
	"repro/internal/tpcds"
)

// freePort reserves a distinct local TCP port.
func freePort(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

func TestMultiProcessDeployment(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process deployment test skipped in -short mode")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin, "./cmd/volap-coord", "./cmd/volap-worker", "./cmd/volap-server", "./cmd/volap-manager")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("building binaries: %v", err)
	}

	coordAddr := freePort(t)
	w0Addr := freePort(t)
	w1Addr := freePort(t)
	srvAddr := freePort(t)
	w0Obs := freePort(t)
	w1Obs := freePort(t)
	srvObs := freePort(t)

	spawn := func(name string, args ...string) *exec.Cmd {
		cmd := exec.Command(filepath.Join(bin, name), args...)
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("starting %s: %v", name, err)
		}
		t.Cleanup(func() {
			_ = cmd.Process.Kill()
			_, _ = cmd.Process.Wait()
		})
		return cmd
	}

	spawn("volap-coord", "-listen", coordAddr)
	waitDial(t, coordAddr)
	spawn("volap-worker", "-coord", coordAddr, "-id", "w0", "-listen", w0Addr, "-shards", "4", "-metrics-addr", w0Obs)
	spawn("volap-worker", "-coord", coordAddr, "-id", "w1", "-listen", w1Addr, "-shards", "4", "-metrics-addr", w1Obs)
	waitDial(t, w0Addr)
	waitDial(t, w1Addr)
	spawn("volap-server", "-coord", coordAddr, "-id", "s0", "-listen", srvAddr, "-sync", "300ms", "-metrics-addr", srvObs)
	spawn("volap-manager", "-coord", coordAddr, "-interval", "300ms")
	waitDial(t, srvAddr)

	// Drive the deployment through the public client API.
	schema := tpcds.Schema()
	cl, err := volap.Connect(srvAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	gen := volap.NewGenerator(schema, 3, 1.1)
	const n = 10000
	for off := 0; off < n; off += 1000 {
		if err := cl.InsertBatchNoCtx(gen.Items(1000)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := cl.QueryNoCtx(volap.AllRect(schema))
	if err != nil {
		t.Fatal(err)
	}
	if res.Agg.Count != n {
		t.Fatalf("count over TCP deployment = %d, want %d", res.Agg.Count, n)
	}
	if res.Info.WorkersContacted != 2 {
		t.Errorf("workers contacted = %d, want 2", res.Info.WorkersContacted)
	}

	// A traced query: the same trace ID must surface in the trace-event
	// buffers of all three processes (server and both workers), read
	// back over their /debug/volap endpoints.
	ctx, traceID := volap.WithTrace(context.Background())
	if _, err := cl.Query(ctx, volap.AllRect(schema)); err != nil {
		t.Fatal(err)
	}
	for _, obsAddr := range []string{srvObs, w0Obs, w1Obs} {
		if !debugHasTrace(t, obsAddr, traceID) {
			t.Errorf("process at %s has no trace %d in its /debug/volap buffer", obsAddr, traceID)
		}
	}

	// Every process serves parseable Prometheus text with nonzero op
	// counters after the traffic above.
	for addr, counter := range map[string]string{
		srvObs: "server_routes_total",
		w0Obs:  "worker_insert_seconds_count",
		w1Obs:  "worker_insert_seconds_count",
	} {
		if v := scrapeTotal(t, addr, counter); v == 0 {
			t.Errorf("process at %s: %s = 0, want nonzero", addr, counter)
		}
	}

	// The public cluster-stats API sees both workers and conserves the
	// item total (polled: a migration may be mid-flight).
	statsDeadline := time.Now().Add(10 * time.Second)
	for {
		cs, err := cl.ClusterStatsNoCtx()
		if err != nil {
			t.Fatal(err)
		}
		var itemsTotal uint64
		for _, ws := range cs.Workers {
			itemsTotal += ws.Items
		}
		if len(cs.Workers) == 2 && itemsTotal == n {
			break
		}
		if time.Now().After(statsDeadline) {
			t.Fatalf("cluster stats never converged: %d workers, %d items (want 2, %d)",
				len(cs.Workers), itemsTotal, n)
		}
		time.Sleep(100 * time.Millisecond)
	}

	res, err = cl.QueryNoCtx(volap.AllRect(schema), volap.WithGroupBy(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	var total uint64
	for _, g := range res.Groups {
		total += g.Agg.Count
	}
	if total != n {
		t.Fatalf("group-by over TCP sums to %d", total)
	}

	// The manager balanced real processes: check the global image.
	co, err := coord.DialClient(coordAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		ws, _ := co.Children(image.PathWorkers)
		var loads []uint64
		for _, w := range ws {
			raw, _, err := co.Get(image.WorkerPath(w))
			if err == nil {
				if m, err := image.DecodeWorkerMetaBytes(raw); err == nil {
					loads = append(loads, m.Items)
				}
			}
		}
		if len(loads) == 2 && loads[0] > 0 && loads[1] > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("workers never both held data: %v", loads)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// TestMultiProcessWorkerKill checks failure detection across real
// process boundaries: a SIGKILLed worker cannot say goodbye, so its
// ephemeral registration must vanish through session expiry alone —
// heartbeats from the live process sustain the lease, the kill starves
// it, the coordination janitor reaps it.
func TestMultiProcessWorkerKill(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process kill test skipped in -short mode")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin, "./cmd/volap-coord", "./cmd/volap-worker")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("building binaries: %v", err)
	}

	coordAddr := freePort(t)
	workerAddr := freePort(t)
	coordCmd := exec.Command(filepath.Join(bin, "volap-coord"), "-listen", coordAddr)
	coordCmd.Stdout = os.Stderr
	coordCmd.Stderr = os.Stderr
	if err := coordCmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = coordCmd.Process.Kill()
		_, _ = coordCmd.Process.Wait()
	})
	waitDial(t, coordAddr)

	const ttl = 500 * time.Millisecond
	workerCmd := exec.Command(filepath.Join(bin, "volap-worker"),
		"-coord", coordAddr, "-id", "w0", "-listen", workerAddr,
		"-shards", "2", "-session-ttl", ttl.String())
	workerCmd.Stdout = os.Stderr
	workerCmd.Stderr = os.Stderr
	if err := workerCmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = workerCmd.Process.Kill()
		_, _ = workerCmd.Process.Wait()
	})

	co, err := coord.DialClient(coordAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	registered := func() bool { return co.Exists(image.WorkerPath("w0")) }

	deadline := time.Now().Add(10 * time.Second)
	for !registered() {
		if time.Now().After(deadline) {
			t.Fatal("worker never registered")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Heartbeats must hold the lease across several TTL windows while the
	// process lives.
	hold := time.Now().Add(3 * ttl)
	for time.Now().Before(hold) {
		if !registered() {
			t.Fatal("registration lapsed while the worker was alive")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// SIGKILL: no deferred cleanup runs in the worker, so only the
	// session TTL can clear the registration.
	if err := workerCmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_, _ = workerCmd.Process.Wait()
	killedAt := time.Now()
	deadline = killedAt.Add(10 * time.Second)
	for registered() {
		if time.Now().After(deadline) {
			t.Fatal("registration survived 10s past a SIGKILL")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The lease ran its course: reaping can't beat the TTL itself (a
	// too-early reap would mean expiry ignores heartbeats entirely).
	if took := time.Since(killedAt); took > 5*time.Second {
		t.Errorf("expiry took %v, want within a few TTLs of the kill", took)
	}
}

// debugHasTrace reads a process's /debug/volap endpoint and reports
// whether its trace-event buffer contains the given trace ID.
func debugHasTrace(t *testing.T, addr string, traceID uint64) bool {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/debug/volap")
	if err != nil {
		t.Fatalf("GET %s/debug/volap: %v", addr, err)
	}
	defer resp.Body.Close()
	var state struct {
		Trace []struct {
			TraceID uint64 `json:"trace_id"`
		} `json:"trace"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&state); err != nil {
		t.Fatalf("decoding %s/debug/volap: %v", addr, err)
	}
	for _, ev := range state.Trace {
		if ev.TraceID == traceID {
			return true
		}
	}
	return false
}

// scrapeTotal fetches a process's /metrics endpoint, checks every sample
// line parses as Prometheus text, and returns the summed value of the
// named metric across its label sets.
func scrapeTotal(t *testing.T, addr, name string) float64 {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatalf("GET %s/metrics: %v", addr, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 {
			t.Fatalf("unparseable metrics line from %s: %q", addr, line)
		}
		series, val := line[:cut], line[cut+1:]
		if val != "+Inf" && val != "NaN" {
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				t.Fatalf("unparseable metrics value from %s: %q", addr, line)
			}
			if series == name || strings.HasPrefix(series, name+"{") {
				total += v
			}
		}
	}
	return total
}

func waitDial(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		conn, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			conn.Close()
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never came up: %v", addr, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
