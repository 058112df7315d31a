package main

import (
	"bytes"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"repro/internal/store"
	"repro/internal/store/replica"
)

// TestSIGTERMDrainMidTail exercises the daemon's graceful shutdown
// against a live follower: provd is killed with SIGTERM while a replica
// is mid-stream, the drain must leave the follower's shipped bytes an
// exact prefix of the primary's on-disk log (no torn response, no lost
// ack), and after a restart on the same store the follower resumes to a
// byte-identical copy.
func TestSIGTERMDrainMidTail(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the provd binary")
	}
	bin := filepath.Join(t.TempDir(), "provd")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	pdir, fdir := t.TempDir(), t.TempDir()
	addr := freeAddr(t)
	base := "http://" + addr

	var logs bytes.Buffer
	start := func(extra ...string) *exec.Cmd {
		args := append([]string{
			"-addr", addr, "-store", pdir, "-role", "primary", "-durability", "group",
		}, extra...)
		cmd := exec.Command(bin, args...)
		cmd.Stdout = &logs
		cmd.Stderr = &logs
		if err := cmd.Start(); err != nil {
			t.Fatalf("start provd: %v", err)
		}
		return cmd
	}

	// First life: synthesize a community so there is a real log to ship.
	cmd := start("-seed", "42", "-users", "25", "-runs", "4")
	waitUp(t, base, &logs)

	// Attach a follower with small shipping batches, so the copy takes
	// many round trips and the SIGTERM lands mid-stream.
	type opened struct {
		f   *replica.Follower
		err error
	}
	openc := make(chan opened, 1)
	go func() {
		f, err := replica.Open(replica.Options{
			Dir: fdir, Primary: base,
			Poll: 2 * time.Millisecond, MaxBackoff: 100 * time.Millisecond,
			RequestTimeout: 2 * time.Second, MaxBatchBytes: 1024,
		})
		openc <- opened{f, err}
	}()
	time.Sleep(25 * time.Millisecond)

	// Drain: the listener stops, in-flight stream responses finish, the
	// store closes cleanly, the process exits 0.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("provd did not exit cleanly on SIGTERM: %v\n%s", err, logs.Bytes())
	}

	var op opened
	select {
	case op = <-openc:
	case <-time.After(15 * time.Second):
		t.Fatal("follower open did not settle after the primary died")
	}

	// Whatever the follower shipped before the kill must be an exact
	// byte prefix of the primary's durable log — the drain may cut the
	// copy short, never corrupt it.
	pbytes, err := os.ReadFile(filepath.Join(pdir, store.LogFileName))
	if err != nil {
		t.Fatal(err)
	}
	if len(pbytes) == 0 {
		t.Fatal("primary log is empty; synthesis did not persist")
	}
	fpath := filepath.Join(fdir, store.LogFileName)
	if fbytes, err := os.ReadFile(fpath); err == nil {
		if len(fbytes) > len(pbytes) || !bytes.Equal(fbytes, pbytes[:len(fbytes)]) {
			t.Fatalf("follower log is not a primary prefix after SIGTERM: %d vs %d bytes", len(fbytes), len(pbytes))
		}
	}

	// Second life: same store, same address, no re-synthesis. The
	// follower resumes from its local committed offset and converges.
	cmd2 := start()
	defer func() {
		_ = cmd2.Process.Signal(syscall.SIGTERM)
		_ = cmd2.Wait()
	}()
	waitUp(t, base, &logs)

	f := op.f
	if f == nil {
		// The kill landed inside the bootstrap; reopening resumes it.
		for attempt := 0; f == nil; attempt++ {
			f, err = replica.Open(replica.Options{
				Dir: fdir, Primary: base,
				Poll: 2 * time.Millisecond, MaxBackoff: 100 * time.Millisecond,
				RequestTimeout: 2 * time.Second, MaxBatchBytes: 4096,
			})
			if err != nil {
				if attempt > 50 {
					t.Fatalf("follower never reopened: %v", err)
				}
				time.Sleep(100 * time.Millisecond)
			}
		}
	}
	defer f.Close()
	deadline := time.Now().Add(15 * time.Second)
	for {
		err := f.CatchUp()
		if _, behind := f.Lag(); err == nil && behind == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never converged after restart: %v", err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	fbytes, err := os.ReadFile(fpath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fbytes, pbytes) {
		t.Fatalf("follower log did not converge byte-identically: %d vs %d bytes", len(fbytes), len(pbytes))
	}
	if runs, err := f.Store().Runs(); err != nil || len(runs) == 0 {
		t.Fatalf("resumed follower store unusable: %d runs, %v", len(runs), err)
	}
}

func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

func waitUp(t *testing.T, base string, logs *bytes.Buffer) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/status")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("provd never came up at %s\n%s", base, logs.Bytes())
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// TestNewServerBoundsHeaders: the server times out a client that trickles
// its request headers, and bounds nothing else — a read or write timeout
// would cut SSE streams and long polls.
func TestNewServerBoundsHeaders(t *testing.T) {
	srv := newServer("127.0.0.1:0", http.NotFoundHandler())
	if srv.ReadHeaderTimeout != readHeaderTimeout || readHeaderTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout = %v, want %v", srv.ReadHeaderTimeout, readHeaderTimeout)
	}
	if srv.ReadTimeout != 0 || srv.WriteTimeout != 0 || srv.IdleTimeout != 0 {
		t.Fatalf("read/write/idle timeouts = %v/%v/%v, want none", srv.ReadTimeout, srv.WriteTimeout, srv.IdleTimeout)
	}
}
