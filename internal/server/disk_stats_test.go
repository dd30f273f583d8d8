// GET /v1/stats over a disk-backed database grows a "disk" object with
// on-disk/resident bytes and cache counters; a heap-backed server omits
// the key entirely.
package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"vxml"
	"vxml/internal/diskstore"
)

// TestStatsDiskObject pins the disk object's shape and the cache
// capacities, and index_cache.refused: with room for one document's
// indices, the second add's are offered to a full cache and refused, since
// neither name has been searched.
func TestStatsDiskObject(t *testing.T) {
	db, err := vxml.OpenDiskOptions(t.TempDir(), diskstore.Options{IndexCacheSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.MustAdd("books.xml", booksXML)
	db.MustAdd("reviews.xml", reviewsXML)

	ts := httptest.NewServer(New(db).Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		TotalBytes int             `json:"total_bytes"`
		Disk       json.RawMessage `json:"disk"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Disk == nil {
		t.Fatal("disk-backed server reports no disk stats")
	}
	type cache struct {
		Entries  int   `json:"entries"`
		Bytes    int64 `json:"bytes"`
		Capacity int64 `json:"capacity"`
		Refused  int64 `json:"refused"`
	}
	var disk struct {
		Documents     int   `json:"documents"`
		DataBytes     int64 `json:"data_bytes"`
		TotalBytes    int   `json:"total_bytes"`
		NodesShared   int64 `json:"nodes_shared"`
		ResidentBytes int64 `json:"resident_bytes"`
		BlockCache    cache `json:"block_cache"`
		DocCache      cache `json:"doc_cache"`
		IndexCache    cache `json:"index_cache"`
	}
	if err := json.Unmarshal(stats.Disk, &disk); err != nil {
		t.Fatal(err)
	}
	if disk.Documents != 2 || disk.DataBytes <= 0 {
		t.Fatalf("implausible disk stats: %s", stats.Disk)
	}
	if disk.BlockCache.Capacity != diskstore.DefaultCacheBytes || disk.DocCache.Capacity != diskstore.DefaultDocCacheSize || disk.IndexCache.Capacity != 1 {
		t.Fatalf("cache capacities %d/%d/%d, want %d bytes/%d/1 entries: %s", disk.BlockCache.Capacity, disk.DocCache.Capacity, disk.IndexCache.Capacity,
			diskstore.DefaultCacheBytes, diskstore.DefaultDocCacheSize, stats.Disk)
	}
	if disk.DocCache.Entries != 2 || disk.DocCache.Bytes <= 0 || disk.DocCache.Bytes != disk.ResidentBytes {
		t.Fatalf("doc_cache holds %d documents of %d bytes, resident_bytes %d: %s", disk.DocCache.Entries, disk.DocCache.Bytes, disk.ResidentBytes, stats.Disk)
	}
	if disk.IndexCache.Entries != 1 || disk.IndexCache.Refused != 1 {
		t.Fatalf("index_cache holds %d entries after %d refusals, want 1 and 1: %s", disk.IndexCache.Entries, disk.IndexCache.Refused, stats.Disk)
	}
	if disk.TotalBytes != stats.TotalBytes {
		t.Fatalf("disk stats total %d != corpus total %d", disk.TotalBytes, stats.TotalBytes)
	}

	// Heap-backed server: the key must be absent, not a zero object.
	heapTS, _ := newTestServer(t)
	resp2, err := http.Get(heapTS.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var raw map[string]json.RawMessage
	if err := json.NewDecoder(resp2.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	if _, present := raw["disk"]; present {
		t.Fatal("heap-backed server leaks a disk stats object")
	}
}
