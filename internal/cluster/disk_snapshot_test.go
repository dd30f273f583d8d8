// Disk-backed snapshot shipping: a node whose corpus slice lives in the
// disk-resident store must ship its block files verbatim (data log first,
// MANIFEST.vxd last), and a replica bootstrapped from that stream must
// serve byte-identical reads — including after the primary dies.
package cluster_test

import (
	"bufio"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"vxml/internal/cluster"
	"vxml/internal/diskstore"
	"vxml/internal/testkit"
)

func TestDiskNodeSnapshotAndFailover(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	primary, err := cluster.NewDiskNode(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	primarySrv := httptest.NewServer(primary.Handler())
	defer primarySrv.Close()

	var replica atomic.Pointer[cluster.Node]
	replica.Store(cluster.NewNode())
	replicaSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		replica.Load().Handler().ServeHTTP(w, r)
	}))
	defer replicaSrv.Close()

	coord, err := cluster.NewCoordinator(cluster.Config{
		Slots:   [][]string{{primarySrv.URL, replicaSrv.URL}},
		Retries: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var rec recorder
	testkit.FillEqCorpus(t, rng, 10, &rec)
	for _, d := range rec.docs {
		if err := coord.AddDocument(context.Background(), d[0], d[1]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := coord.DefineView(context.Background(), "v", testkit.EqViews[1], false); err != nil {
		t.Fatal(err)
	}
	kws := []string{"copper", "quartz"}
	ref, _, err := coord.Search(context.Background(), "v", kws, nil)
	if err != nil {
		t.Fatal(err)
	}

	// The raw snapshot stream must name the disk store's files — a
	// CORPUS-*.vxd data log before the committing MANIFEST.vxd, nothing
	// re-serialized — followed by the done marker.
	resp, err := http.Get(primarySrv.URL + "/cluster/v1/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var names []string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 64<<20)
	sawDone := false
	for sc.Scan() {
		var chunk struct {
			File string `json:"file"`
			Done bool   `json:"done"`
		}
		if err := json.Unmarshal(sc.Bytes(), &chunk); err != nil {
			continue // header line has a different shape
		}
		if chunk.File != "" {
			names = append(names, chunk.File)
		}
		if chunk.Done {
			sawDone = true
		}
	}
	if !sawDone {
		t.Fatal("snapshot stream has no done marker")
	}
	if len(names) != 2 || !strings.HasPrefix(names[0], "CORPUS-") || names[1] != diskstore.ManifestFileName {
		t.Fatalf("disk snapshot shipped %v, want [CORPUS-*.vxd %s]", names, diskstore.ManifestFileName)
	}

	// Bootstrap a replica from the stream: it opens the shipped block files
	// as a disk store and serves byte-identical reads after failover.
	boot, err := cluster.NewNodeFromSnapshot(context.Background(), nil, primarySrv.URL)
	if err != nil {
		t.Fatalf("snapshot bootstrap: %v", err)
	}
	defer boot.Close()
	if boot.Gen() != primary.Gen() {
		t.Fatalf("replica at generation %d, primary at %d", boot.Gen(), primary.Gen())
	}
	if boot.Documents() != primary.Documents() {
		t.Fatalf("replica holds %d documents, primary %d", boot.Documents(), primary.Documents())
	}
	replica.Store(boot)
	primarySrv.Close()

	got, _, err := coord.Search(context.Background(), "v", kws, nil)
	if err != nil {
		t.Fatalf("failover search: %v", err)
	}
	testkit.MustEqualResults(t, "disk replica failover", ref, got)
}
