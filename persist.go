// Corpus persistence: a Database can be saved to a directory and reopened
// with identical search behavior, in either of two formats.
//
// The plain format (Save/Load) writes one XML file per document plus a
// manifest; indices are rebuilt on load. The disk format
// (SaveDisk/OpenDisk) writes a DAG-compressed block store with the indices
// persisted alongside the documents: opening it costs O(manifest), trees
// and indices page in on demand through a bounded block cache, and the
// corpus can be much bigger than RAM. Both formats reproduce the corpus
// exactly — same document IDs, shard assignment and enumeration order —
// and the two backends return byte-identical search results (pinned by the
// equivalence suites).

package vxml

import (
	"vxml/internal/core"
	"vxml/internal/diskstore"
	"vxml/internal/store"
)

// Save writes every document to dir plus a manifest recording document IDs,
// load order and the shard count, so a Load of the directory reproduces the
// corpus exactly: same Dewey IDs, same shard assignment, same collection
// enumeration order — including for a corpus mutated by Replace and Delete,
// whose document ID sequence has gaps. Files are written via temp-file plus
// rename with the manifest renamed last, so a save that fails part-way
// never leaves a directory that half-loads. A document named "MANIFEST"
// (or with a path separator in its name) cannot be saved and is rejected
// with an error before anything is written over it. Works on every
// backend: a disk-resident corpus is hydrated document by document.
func (db *Database) Save(dir string) error {
	return store.SaveCorpus(db.engine.Store, dir)
}

// Load opens a database over a directory written by Save, rebuilding the
// per-document indices. Searches over the loaded database — on every
// pipeline, at every parallelism, cached or not — return byte-identical
// results to the database that was saved. The loaded database starts with
// a fresh (empty) query-result cache.
func Load(dir string) (*Database, error) {
	st, err := store.Load(dir)
	if err != nil {
		return nil, err
	}
	return newDatabase(core.New(st)), nil
}

// OpenDisk opens a database over a disk-resident corpus directory written
// by SaveDisk (creating an empty one with store.DefaultShardCount shards
// if the directory holds no corpus yet). Startup reads only the manifest:
// documents and indices stay on disk, paged in on demand through a bounded
// block cache, so the corpus may exceed RAM. All mutations (Add, Replace,
// Delete) persist incrementally — only new structure is appended — and
// survive restarts. Search results are byte-identical to a heap-backed
// database over the same documents. Call Close when done to release the
// store's file handles.
func OpenDisk(dir string) (*Database, error) {
	return OpenDiskOptions(dir, diskstore.Options{})
}

// OpenDiskOptions is OpenDisk with explicit cache and I/O tuning (block
// size, block/document/index cache bounds).
func OpenDiskOptions(dir string, opts diskstore.Options) (*Database, error) {
	var ds *diskstore.Store
	var err error
	if diskstore.Exists(dir) {
		ds, err = diskstore.OpenWith(dir, opts)
	} else {
		ds, err = diskstore.Init(dir, 0, opts)
	}
	if err != nil {
		return nil, err
	}
	return newDatabase(core.New(ds)), nil
}

// SaveDisk writes the corpus as a disk-resident, DAG-compressed store in
// dir: structurally identical subtrees (across and within documents) are
// stored once, and each document's indices are persisted beside it so
// OpenDisk never rebuilds them. The new store is committed by renaming its
// manifest last — a crash mid-save leaves any previous corpus in dir
// intact. The indices the corpus already keeps are persisted as they are,
// not rebuilt.
func (db *Database) SaveDisk(dir string) error {
	db.engine.RLock()
	defer db.engine.RUnlock()
	ds, err := diskstore.Create(db.engine.Store, dir, diskstore.Options{}, nil)
	if err != nil {
		return err
	}
	return ds.Close()
}

// DiskStats returns the disk backend's resource counters (on-disk and
// resident bytes, dedup ratio, cache hit rates, open time). ok is false
// when the database is heap-backed.
func (db *Database) DiskStats() (stats diskstore.Stats, ok bool) {
	if ds, isDisk := db.engine.Store.(*diskstore.Store); isDisk {
		return ds.DiskStats(), true
	}
	return diskstore.Stats{}, false
}

// Close releases backend resources (the disk backend's file handles). It
// is a no-op on a heap-backed database. The database must not be used
// after Close.
func (db *Database) Close() error {
	if ds, isDisk := db.engine.Store.(*diskstore.Store); isDisk {
		return ds.Close()
	}
	return nil
}
