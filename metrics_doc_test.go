package repro

import (
	"bufio"
	"bytes"
	"io"
	"log/slog"
	"net/http/httptest"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/collab"
	"repro/internal/collab/api"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/store/replica"
	"repro/internal/store/shardedstore"

	_ "repro/internal/query/standing"
	_ "repro/internal/store/closurecache"
)

// TestReadmeMetricTableMatchesRegistry holds the README's metric table to
// the live obs.Default() registry: every prov_ series a provd process can
// expose has a row, with its type, and every row names a series that
// exists. The series registered at package init are there already; the
// test assembles what registers the rest (a router's per-shard gauges,
// the HTTP middleware's series — a slow request included —, a follower's
// gauges and a failover node's).
func TestReadmeMetricTableMatchesRegistry(t *testing.T) {
	primaryStore, err := store.OpenFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer primaryStore.Close()
	src, err := replica.NewSource(primaryStore)
	if err != nil {
		t.Fatal(err)
	}
	primary := httptest.NewServer(collab.NewHandlerWith(collab.NewRepository(primaryStore), collab.HandlerOptions{
		Source:      src,
		Status:      func() api.ReplicationStatus { return src.Status(nil, nil) },
		SlowRequest: time.Nanosecond,
		RequestLog:  slog.New(slog.NewTextHandler(io.Discard, nil)),
	}))
	defer primary.Close()
	f, err := replica.Open(replica.Options{Dir: t.TempDir(), Primary: primary.URL})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.CatchUp(); err != nil {
		t.Fatal(err)
	}
	if _, err := replica.NewNode(t.TempDir(), api.RolePrimary, nil); err != nil {
		t.Fatal(err)
	}
	shardedstore.NewMem(2).Close()

	var scrape bytes.Buffer
	if err := obs.Default().WritePrometheus(&scrape); err != nil {
		t.Fatal(err)
	}
	live := map[string]string{} // name -> type
	sc := bufio.NewScanner(&scrape)
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" && strings.HasPrefix(f[2], "prov_") {
			live[f[2]] = f[3]
		}
	}

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	row := regexp.MustCompile("(?m)^\\| `(prov_[a-z_]+)` \\| ([a-z]+) \\|")
	documented := map[string]string{}
	for _, m := range row.FindAllStringSubmatch(string(readme), -1) {
		documented[m[1]] = m[2]
	}
	if len(documented) == 0 {
		t.Fatal("found no metric rows in README.md")
	}

	var missing, stale, mistyped []string
	for name, kind := range live {
		switch doc, ok := documented[name]; {
		case !ok:
			missing = append(missing, name)
		case doc != kind:
			mistyped = append(mistyped, name+" is a "+kind+", README says "+doc)
		}
	}
	for name := range documented {
		if _, ok := live[name]; !ok {
			stale = append(stale, name)
		}
	}
	slices.Sort(missing)
	slices.Sort(stale)
	slices.Sort(mistyped)
	if len(missing)+len(stale)+len(mistyped) > 0 {
		t.Fatalf("README metric table and registry disagree:\n  no README row: %v\n  no live series: %v\n  wrong type: %v", missing, stale, mistyped)
	}
}
