package diskstore

import (
	"errors"
	"fmt"
	"os"
	"sync"
)

// errInjectedFault is what the fault seam returns once its byte budget is
// exhausted; the crash-safety property test arms the seam and then asserts
// every interrupted directory still opens as the old or the new corpus.
var errInjectedFault = errors.New("diskstore: injected write fault")

// faultPlan is the write fault-injection seam. When armed, at most budget
// further bytes reach the operating system across ALL writers sharing the
// plan; the write that crosses the budget lands a partial prefix (a torn
// write) and errors. One plan is shared by a store's data and manifest
// appenders — and by Create's temp-file writers — so a single budget models
// a process killed at an arbitrary point of any persistence operation.
type faultPlan struct {
	mu     sync.Mutex
	armed  bool
	budget int64
}

// arm sets the remaining byte budget. budget < 0 disarms.
func (fp *faultPlan) arm(budget int64) {
	fp.mu.Lock()
	fp.armed, fp.budget = budget >= 0, budget
	fp.mu.Unlock()
}

// admit reports how many of n bytes may be written (torn prefix) and
// whether the write must fail afterwards.
func (fp *faultPlan) admit(n int) (allow int, fail bool) {
	if fp == nil {
		return n, false
	}
	fp.mu.Lock()
	defer fp.mu.Unlock()
	if !fp.armed {
		return n, false
	}
	if int64(n) <= fp.budget {
		fp.budget -= int64(n)
		return n, false
	}
	allow = int(fp.budget)
	fp.budget = 0
	return allow, true
}

// appendFile is an append-only file with an explicit logical end offset and
// the fault seam threaded through every write. The logical offset advances
// only on fully successful writes, so after a torn write off points at the
// last consistent end and the caller can truncate back to it.
type appendFile struct {
	f     *os.File
	off   int64
	fault *faultPlan
}

func openAppend(path string, fault *faultPlan) (*appendFile, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close() //nolint:errcheck
		return nil, err
	}
	return &appendFile{f: f, off: st.Size(), fault: fault}, nil
}

// Write appends p at the logical end. On a torn or failed write the
// logical offset is left at the pre-write position.
func (af *appendFile) Write(p []byte) error {
	allow, fail := af.fault.admit(len(p))
	if allow > 0 {
		if _, err := af.f.WriteAt(p[:allow], af.off); err != nil {
			return err
		}
	}
	if fail {
		return errInjectedFault
	}
	af.off += int64(len(p))
	return nil
}

// Truncate discards everything past n and resets the logical end.
func (af *appendFile) Truncate(n int64) error {
	if err := af.f.Truncate(n); err != nil {
		return err
	}
	af.off = n
	return nil
}

// Close closes the underlying file.
func (af *appendFile) Close() error { return af.f.Close() }

// fileSource serves random reads of the committed data log by pread
// through the OS page cache. Reads are always for offsets below the
// committed length, which pread serves concurrently without locking.
type fileSource struct{ f *os.File }

// ReadAt fills p from offset off; short reads are errors.
func (fs *fileSource) ReadAt(p []byte, off int64) error {
	if _, err := fs.f.ReadAt(p, off); err != nil {
		return fmt.Errorf("diskstore: read %d bytes at %d: %w", len(p), off, err)
	}
	return nil
}

// Close closes the read handle.
func (fs *fileSource) Close() error { return fs.f.Close() }
