package cluster

// Snapshot shipping: a node streams its persisted corpus plus its view
// registry and generation as one NDJSON response, and NewNodeFromSnapshot
// rebuilds a byte-identical replica from that stream. A heap-backed node
// streams the v2 MANIFEST format through store.EmitSaveFiles — the exact
// serialization store.Save writes, so the two can never drift; a
// disk-backed node ships its block files verbatim (data log, then
// MANIFEST.vxd), so the replica inherits the DAG-compressed representation
// byte for byte and opens it without a rebuild. In both formats the
// manifest travels last: a replica that receives a truncated stream fails
// fast instead of opening a partial corpus. Because the snapshot carries
// coordinator-assigned document IDs and the generation it was cut at, a
// bootstrapped replica serves reads indistinguishable from its primary for
// as long as its generation matches the coordinator's vector — and is
// rejected by the generation check, never silently stale, once the primary
// moves on.

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"

	"vxml/internal/core"
	"vxml/internal/diskstore"
	"vxml/internal/store"
)

// fileSnapshotter is the seam a backend implements to ship its persisted
// files verbatim instead of re-serializing documents (diskstore.Store
// does). Files must be emitted with the corpus-committing manifest last.
type fileSnapshotter interface {
	SnapshotFiles(emit func(name string, data []byte) error) error
}

// handleSnapshot streams the node's corpus: header (generation + views),
// one line per persisted file (manifest last), then an explicit done
// marker whose absence tells the receiver the stream was truncated. The
// read lock is held for the whole emission, so the snapshot is a
// consistent cut at exactly the advertised generation. Nothing touches the
// local filesystem: both backends stream straight from memory or their
// already-persisted files.
func (n *Node) handleSnapshot(w http.ResponseWriter, _ *http.Request) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	header := snapshotHeader{Schema: Schema, Gen: n.gen, Views: make([]viewSnapshot, 0, len(n.views))}
	for name, v := range n.views {
		header.Views = append(header.Views, viewSnapshot{Name: name, XQuery: v.Text})
	}
	sort.Slice(header.Views, func(i, j int) bool { return header.Views[i].Name < header.Views[j].Name })

	st := n.streams.Open(w)
	if err := st.Line(header); err != nil {
		return
	}
	sendFile := func(name string, data []byte) error {
		return st.Line(snapshotChunk{File: name, Data: base64.StdEncoding.EncodeToString(data)})
	}
	var err error
	if fs, ok := n.engine.Store.(fileSnapshotter); ok {
		err = fs.SnapshotFiles(sendFile)
	} else {
		err = store.EmitSaveFiles(n.engine.Store, func(f store.SaveFile) error {
			var buf bytes.Buffer
			if werr := f.WriteTo(&buf); werr != nil {
				return werr
			}
			return sendFile(f.Name, buf.Bytes())
		})
	}
	if err != nil {
		// Headers are long gone; an in-stream error line is all we can do,
		// and the absent done marker makes truncation unmistakable anyway.
		st.Line(snapshotChunk{Error: err.Error(), Code: codeInternal}) //nolint:errcheck
		return
	}
	st.Line(snapshotChunk{Done: true}) //nolint:errcheck
}

// NewNodeFromSnapshot bootstraps a node (typically a read replica) from
// another node's snapshot stream: it fetches GET /cluster/v1/snapshot from
// baseURL, restores the corpus (document IDs and shard count preserved),
// compiles the shipped views, and adopts the snapshot's generation. The
// stream's own file names say which backend the primary runs: a shipped
// MANIFEST.vxd opens as a disk-resident store over the received block
// files (kept in a temp directory for the node's lifetime — Close removes
// it), anything else loads through store.Load. A nil client uses
// http.DefaultClient.
func NewNodeFromSnapshot(ctx context.Context, client *http.Client, baseURL string) (*Node, error) {
	if client == nil {
		client = http.DefaultClient
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+pathPrefix+"/snapshot", nil)
	if err != nil {
		return nil, fmt.Errorf("cluster: snapshot request: %w", err)
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("cluster: fetching snapshot from %s: %w", baseURL, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cluster: snapshot from %s: %w", baseURL, errorFromResponse(resp))
	}
	dec := json.NewDecoder(resp.Body)
	var header snapshotHeader
	if err := dec.Decode(&header); err != nil {
		return nil, fmt.Errorf("cluster: snapshot header: %w", err)
	}
	if header.Schema != Schema {
		return nil, fmt.Errorf("cluster: snapshot schema %q not supported (want %q)", header.Schema, Schema)
	}
	dir, err := os.MkdirTemp("", "vxmlboot-")
	if err != nil {
		return nil, err
	}
	keepDir := false
	defer func() {
		if !keepDir {
			os.RemoveAll(dir)
		}
	}()
	done, isDisk := false, false
	for !done {
		var chunk snapshotChunk
		if err := dec.Decode(&chunk); err != nil {
			if err == io.EOF {
				break
			}
			return nil, fmt.Errorf("cluster: snapshot stream: %w", err)
		}
		switch {
		case chunk.Error != "":
			return nil, fmt.Errorf("cluster: snapshot stream: %s", chunk.Error)
		case chunk.Done:
			done = true
		default:
			if chunk.File == "" || filepath.Base(chunk.File) != chunk.File {
				return nil, fmt.Errorf("cluster: snapshot names unsafe file %q", chunk.File)
			}
			data, err := base64.StdEncoding.DecodeString(chunk.Data)
			if err != nil {
				return nil, fmt.Errorf("cluster: snapshot file %s: %w", chunk.File, err)
			}
			if err := os.WriteFile(filepath.Join(dir, chunk.File), data, 0o644); err != nil {
				return nil, err
			}
			if chunk.File == diskstore.ManifestFileName {
				isDisk = true
			}
		}
	}
	if !done {
		return nil, fmt.Errorf("cluster: snapshot from %s truncated (no done marker)", baseURL)
	}
	var n *Node
	if isDisk {
		ds, err := diskstore.Open(dir)
		if err != nil {
			return nil, fmt.Errorf("cluster: restoring disk snapshot: %w", err)
		}
		n = newNode(ds)
		n.bootDir, keepDir = dir, true
	} else {
		st, err := store.Load(dir)
		if err != nil {
			return nil, fmt.Errorf("cluster: restoring snapshot: %w", err)
		}
		n = newNode(st)
	}
	for _, vs := range header.Views {
		v, err := core.Compile(vs.XQuery)
		if err != nil {
			n.Close()
			return nil, fmt.Errorf("cluster: compiling shipped view %q: %w", vs.Name, err)
		}
		n.views[vs.Name] = v
	}
	n.gen = header.Gen
	return n, nil
}
