package collab

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/collab/api"
	"repro/internal/provenance"
	"repro/internal/store"
	"repro/internal/store/replica"
)

// TestV1StreamMaxIsClamped pins the bound on /v1/replication/stream: a
// client asking for a terabyte gets at most maxStreamBytes of a longer
// log, and a follower asking for as much still converges to the
// primary's exact bytes — a record larger than the cap included.
func TestV1StreamMaxIsClamped(t *testing.T) {
	pdir := t.TempDir()
	fs, err := store.OpenFileStore(pdir)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	padRun := func(i, pad int) *provenance.RunLog {
		id := fmt.Sprintf("run-%03d", i)
		return &provenance.RunLog{Run: provenance.Run{
			ID: id, WorkflowID: "wf", Status: provenance.StatusOK,
			Environment: map[string]string{"pad": strings.Repeat("x", pad)},
		}}
	}
	for i := 0; i < 10; i++ {
		if err := fs.PutRunLog(padRun(i, 600<<10)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.PutRunLog(padRun(10, maxStreamBytes+(1<<20))); err != nil {
		t.Fatal(err)
	}
	src, err := replica.NewSource(fs)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandlerWith(NewRepository(fs), HandlerOptions{
		Source: src,
		Status: func() api.ReplicationStatus { return src.Status(nil, nil) },
	}))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/replication/stream?shard=0&from=0&max=" + strconv.FormatInt(1<<40, 10))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: status %d, %v", resp.StatusCode, err)
	}
	committed, _ := strconv.ParseInt(resp.Header.Get(api.HeaderLogCommitted), 10, 64)
	if committed <= maxStreamBytes {
		t.Fatalf("log of %d bytes does not exceed the %d-byte cap", committed, maxStreamBytes)
	}
	if len(body) == 0 || len(body) > maxStreamBytes {
		t.Fatalf("max=1<<40 returned %d bytes, want 1..%d", len(body), maxStreamBytes)
	}

	fdir := t.TempDir()
	f, err := replica.Open(replica.Options{Dir: fdir, Primary: srv.URL, MaxBatchBytes: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.CatchUp(); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join(pdir, store.LogFileName))
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(fdir, store.LogFileName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("follower log %d bytes, primary %d: not byte-identical", len(got), len(want))
	}
}
