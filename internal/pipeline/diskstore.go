package pipeline

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"vipipe/internal/flowerr"
	"vipipe/internal/obs"
)

// Codec serializes one artifact kind for the DiskStore. Encode must
// produce bytes Decode can round-trip into a value equivalent (for
// every consumer of the node's artifact) to the original; the store
// adds framing and checksums around the payload, so codecs deal in
// plain payload bytes.
type Codec interface {
	Encode(v any) ([]byte, error)
	Decode(data []byte) (any, error)
}

// Codecs selects the codec for a node ID (the part of a store key
// after the graph prefix, e.g. "mc/A"). Returning nil declares the
// artifact non-persistable — engine-state artifacts like live timing
// analyzers stay in the memory tier — and the DiskStore's Get misses
// and Put skips it without touching the filesystem.
type Codecs func(nodeID string) Codec

// NodeID extracts the codec-selection ID from a store key: the part
// after the first "/" (graph keys are "<config hash>/<node id>"), or
// the whole key when it has no prefix.
func NodeID(key string) string {
	if _, id, ok := strings.Cut(key, "/"); ok {
		return id
	}
	return key
}

// DiskStore is a disk-backed content-addressed artifact store with
// crash-safe writes and end-to-end corruption detection:
//
//   - Every artifact is written to a temp file, fsynced, and
//     atomically renamed into place, so a crash mid-write can never
//     leave a half-visible artifact under its final name.
//   - Every file carries a checksum footer over its payload. A read
//     that fails verification — torn frame, flipped bits, an
//     undecodable payload — quarantines the file under
//     <dir>/quarantine/ and reports a miss, so corruption degrades to
//     a recompute instead of serving bad data.
//   - All IO runs under a per-attempt timeout and bounded retries
//     with backoff. After FailThreshold consecutive IO failures the
//     store enters degraded mode: reads and writes short-circuit to
//     misses/no-ops (serving continues from memory and compute) and
//     every ProbeEvery skipped operations one probe attempt is let
//     through, so a recovered disk re-enables the store by itself.
//
// DiskStore is a tier, not a Store: Get and Put serve the Tiered
// composition, whose memory front elects the one caller per key that
// reaches disk. It is safe for concurrent use by any number of
// goroutines and — thanks to the atomic-rename discipline — by
// concurrent processes sharing dir.
type DiskStore struct {
	dir    string
	codecs Codecs
	fs     FS

	opTimeout     time.Duration
	retries       int
	backoff       time.Duration
	failThreshold int64
	probeEvery    int64

	consecFails   atomic.Int64
	degraded      atomic.Bool
	skippedOps    atomic.Int64
	hits          atomic.Int64
	misses        atomic.Int64
	writes        atomic.Int64
	readErrs      atomic.Int64
	writeErrs     atomic.Int64
	quarantined   atomic.Int64
	degradedSkips atomic.Int64

	tmpSeq atomic.Int64
}

// DiskOption configures a DiskStore.
type DiskOption func(*DiskStore)

// WithFS substitutes the filesystem (fault-injection tests).
func WithFS(fs FS) DiskOption { return func(s *DiskStore) { s.fs = fs } }

// WithIOTimeout bounds each IO attempt; d <= 0 keeps the default (2s).
func WithIOTimeout(d time.Duration) DiskOption {
	return func(s *DiskStore) {
		if d > 0 {
			s.opTimeout = d
		}
	}
}

// WithRetries sets the retry budget per operation (n extra attempts
// after the first) and the initial backoff between attempts, which
// doubles per retry. n < 0 keeps the default (2); backoff <= 0 keeps
// the default (5ms).
func WithRetries(n int, backoff time.Duration) DiskOption {
	return func(s *DiskStore) {
		if n >= 0 {
			s.retries = n
		}
		if backoff > 0 {
			s.backoff = backoff
		}
	}
}

// WithFailThreshold sets how many consecutive IO failures flip the
// store into degraded mode (default 4), and how many short-circuited
// operations pass between recovery probes while degraded (default 32).
func WithFailThreshold(fails, probeEvery int) DiskOption {
	return func(s *DiskStore) {
		if fails > 0 {
			s.failThreshold = int64(fails)
		}
		if probeEvery > 0 {
			s.probeEvery = int64(probeEvery)
		}
	}
}

// OpenDiskStore opens (creating if needed) an artifact store rooted
// at dir. On an unusable directory — missing and uncreatable,
// unwritable — it still returns a working store, pre-degraded, along
// with an error matching flowerr.ErrBadInput describing why: callers
// that must keep serving (the daemon) log the error and continue in
// degraded mode, callers that exist only to use the store (CLIs)
// treat it as fatal.
func OpenDiskStore(dir string, codecs Codecs, opts ...DiskOption) (*DiskStore, error) {
	s := &DiskStore{
		dir:           dir,
		codecs:        codecs,
		fs:            osFS{},
		opTimeout:     2 * time.Second,
		retries:       2,
		backoff:       5 * time.Millisecond,
		failThreshold: 4,
		probeEvery:    32,
	}
	for _, opt := range opts {
		opt(s)
	}
	if err := s.initDirs(); err != nil {
		s.consecFails.Store(s.failThreshold)
		s.degraded.Store(true)
		return s, flowerr.BadInputf("pipeline: store dir %s unusable, starting degraded: %v", dir, err)
	}
	return s, nil
}

// initDirs creates the store layout and proves the directory is
// writable with one probe write-and-remove.
func (s *DiskStore) initDirs() error {
	for _, d := range []string{s.objectsDir(), s.tmpDir(), s.quarantineDir()} {
		if err := s.fs.MkdirAll(d); err != nil {
			return err
		}
	}
	probe := filepath.Join(s.tmpDir(), "probe")
	if err := s.fs.WriteFile(probe, []byte("vipipe store probe")); err != nil {
		return err
	}
	return s.fs.Remove(probe)
}

func (s *DiskStore) objectsDir() string    { return filepath.Join(s.dir, "objects") }
func (s *DiskStore) tmpDir() string        { return filepath.Join(s.dir, "tmp") }
func (s *DiskStore) quarantineDir() string { return filepath.Join(s.dir, "quarantine") }

// Dir returns the store root.
func (s *DiskStore) Dir() string { return s.dir }

// Degraded reports whether the store is currently short-circuiting IO
// after repeated failures (or a failed open).
func (s *DiskStore) Degraded() bool { return s.degraded.Load() }

// DiskStats is the accounting snapshot for /metrics.
type DiskStats struct {
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Writes        int64 `json:"writes"`
	ReadErrors    int64 `json:"read_errors"`
	WriteErrors   int64 `json:"write_errors"`
	Quarantined   int64 `json:"quarantined"`
	DegradedSkips int64 `json:"degraded_skips"`
	Degraded      bool  `json:"degraded"`
}

// Stats snapshots the accounting counters.
func (s *DiskStore) Stats() DiskStats {
	return DiskStats{
		Hits:          s.hits.Load(),
		Misses:        s.misses.Load(),
		Writes:        s.writes.Load(),
		ReadErrors:    s.readErrs.Load(),
		WriteErrors:   s.writeErrs.Load(),
		Quarantined:   s.quarantined.Load(),
		DegradedSkips: s.degradedSkips.Load(),
		Degraded:      s.degraded.Load(),
	}
}

// ---- framing ------------------------------------------------------

// artifact file frame: magic, 8-byte big-endian payload length, the
// codec payload, then a sha256 footer over the payload. Truncation
// (torn write that escaped the rename discipline, e.g. an injected
// fault) breaks the length check; bit rot breaks the checksum.
const frameMagic = "vipart1\n"

const frameOverhead = len(frameMagic) + 8 + sha256.Size

func frame(payload []byte) []byte {
	out := make([]byte, 0, frameOverhead+len(payload))
	out = append(out, frameMagic...)
	var lenb [8]byte
	binary.BigEndian.PutUint64(lenb[:], uint64(len(payload)))
	out = append(out, lenb[:]...)
	out = append(out, payload...)
	sum := sha256.Sum256(payload)
	return append(out, sum[:]...)
}

// unframe verifies and strips the frame; ok is false on any
// corruption.
func unframe(data []byte) (payload []byte, ok bool) {
	if len(data) < frameOverhead || string(data[:len(frameMagic)]) != frameMagic {
		return nil, false
	}
	n := binary.BigEndian.Uint64(data[len(frameMagic) : len(frameMagic)+8])
	if n != uint64(len(data)-frameOverhead) {
		return nil, false
	}
	payload = data[len(frameMagic)+8 : len(data)-sha256.Size]
	sum := sha256.Sum256(payload)
	var footer [sha256.Size]byte
	copy(footer[:], data[len(data)-sha256.Size:])
	if footer != sum {
		return nil, false
	}
	return payload, true
}

// ---- key mapping --------------------------------------------------

// path maps a store key to its artifact file, rejecting keys whose
// segments could escape the objects directory. The ".art" suffix
// keeps a key from colliding with the directory of a longer key that
// extends it.
func (s *DiskStore) path(key string) (string, error) {
	if key == "" {
		return "", flowerr.BadInputf("pipeline: empty store key")
	}
	segs := strings.Split(key, "/")
	for _, seg := range segs {
		if seg == "" || seg == "." || seg == ".." {
			return "", flowerr.BadInputf("pipeline: store key %q has an unsafe path segment", key)
		}
		for _, r := range seg {
			if r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' ||
				r == '.' || r == '_' || r == '-' {
				continue
			}
			return "", flowerr.BadInputf("pipeline: store key %q has character %q outside [a-zA-Z0-9._-]", key, r)
		}
	}
	return filepath.Join(s.objectsDir(), filepath.Join(segs...)) + ".art", nil
}

func (s *DiskStore) codec(key string) Codec {
	if s.codecs == nil {
		return nil
	}
	return s.codecs(NodeID(key))
}

// ---- degradation accounting ---------------------------------------

// allow gates one IO operation. While healthy it always passes; while
// degraded it short-circuits, letting one probe through every
// probeEvery skipped operations so a recovered disk is noticed.
func (s *DiskStore) allow() bool {
	if !s.degraded.Load() {
		return true
	}
	if s.skippedOps.Add(1)%s.probeEvery == 0 {
		return true
	}
	s.degradedSkips.Add(1)
	return false
}

func (s *DiskStore) recordSuccess() {
	s.consecFails.Store(0)
	if s.degraded.CompareAndSwap(true, false) {
		s.skippedOps.Store(0)
	}
}

func (s *DiskStore) recordFailure() {
	if s.consecFails.Add(1) >= s.failThreshold {
		s.degraded.Store(true)
	}
}

// ---- IO with timeout, retry, backoff ------------------------------

var errIOTimeout = errors.New("store IO attempt timed out")

// attempt runs one IO operation under the per-attempt timeout. On
// timeout the operation keeps running in its goroutine (blocking file
// IO cannot be interrupted) but its eventual result is discarded.
func (s *DiskStore) attempt(op func() error) error {
	done := make(chan error, 1)
	go func() { done <- op() }()
	t := time.NewTimer(s.opTimeout)
	defer t.Stop()
	select {
	case err := <-done:
		return err
	case <-t.C:
		return errIOTimeout
	}
}

// retryIO runs op with bounded retries and doubling backoff, stopping
// early on ctx expiry or a definitive not-exist answer.
func (s *DiskStore) retryIO(ctx context.Context, op func() error) error {
	backoff := s.backoff
	var err error
	for i := 0; i <= s.retries; i++ {
		if i > 0 {
			t := time.NewTimer(backoff)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return flowerr.Cancelledf("pipeline: store IO retry: %w", ctx.Err())
			}
			backoff *= 2
		}
		if err = s.attempt(op); err == nil || errors.Is(err, os.ErrNotExist) {
			return err
		}
		if ctx.Err() != nil {
			return err
		}
	}
	return err
}

// ---- read / write / quarantine ------------------------------------

// Get returns the decoded artifact for key when a valid file exists.
// The int64 is the payload size on disk, the store's retained-size
// estimate for bounded front tiers. A corrupt file is quarantined and
// reported as a miss; IO failures count toward degradation and also
// report a miss — the caller recomputes, it never sees an error.
func (s *DiskStore) Get(ctx context.Context, key string) (any, int64, bool) {
	codec := s.codec(key)
	if codec == nil {
		return nil, 0, false
	}
	if !s.allow() {
		return nil, 0, false
	}
	path, err := s.path(key)
	if err != nil {
		return nil, 0, false
	}
	_, span := obs.Start(ctx, "store.disk.read")
	defer span.End()
	span.SetAttr("key", key)
	span.SetAttr("tier", "disk")

	var data []byte
	err = s.retryIO(ctx, func() error {
		var rerr error
		data, rerr = s.fs.ReadFile(path)
		return rerr
	})
	switch {
	case errors.Is(err, os.ErrNotExist):
		s.recordSuccess() // a definitive miss is a healthy disk
		s.misses.Add(1)
		span.SetAttr("outcome", "miss")
		return nil, 0, false
	case err != nil:
		s.readErrs.Add(1)
		s.recordFailure()
		span.SetAttr("outcome", "error")
		span.SetAttr("error", err.Error())
		return nil, 0, false
	}
	payload, ok := unframe(data)
	if !ok {
		s.quarantine(ctx, key, path, span)
		return nil, 0, false
	}
	v, derr := codec.Decode(payload)
	if derr != nil {
		s.quarantine(ctx, key, path, span)
		return nil, 0, false
	}
	s.recordSuccess()
	s.hits.Add(1)
	span.SetAttr("outcome", "hit")
	span.SetAttr("bytes", len(payload))
	return v, int64(len(payload)), true
}

// quarantine moves a corrupt artifact out of the read path so the
// recompute's fresh write replaces it and operators can inspect the
// bad bytes. Counted as corruption, not as an IO failure: the disk
// answered, the content was wrong.
func (s *DiskStore) quarantine(ctx context.Context, key, path string, span *obs.Span) {
	s.quarantined.Add(1)
	s.misses.Add(1)
	span.SetAttr("outcome", "corrupt")
	dst := filepath.Join(s.quarantineDir(), strings.ReplaceAll(key, "/", "_")+".art")
	err := s.retryIO(ctx, func() error { return s.fs.Rename(path, dst) })
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		// Could not move it aside; remove so it cannot be served again.
		_ = s.retryIO(ctx, func() error { return s.fs.Remove(path) })
	}
}

// Put persists an artifact, best-effort: temp file, fsync, atomic
// rename. It reports whether the artifact is durably on disk; a false
// return (no codec, degraded mode, IO failure) is not an error — the
// memory tier still holds the value.
func (s *DiskStore) Put(ctx context.Context, key string, v any) bool {
	codec := s.codec(key)
	if codec == nil {
		return false
	}
	if !s.allow() {
		return false
	}
	path, err := s.path(key)
	if err != nil {
		return false
	}
	_, span := obs.Start(ctx, "store.disk.write")
	defer span.End()
	span.SetAttr("key", key)
	span.SetAttr("tier", "disk")

	payload, err := codec.Encode(v)
	if err != nil {
		s.writeErrs.Add(1)
		span.SetAttr("outcome", "encode_error")
		span.SetAttr("error", err.Error())
		return false
	}
	data := frame(payload)
	tmp := filepath.Join(s.tmpDir(), fmt.Sprintf("w%d-%d.tmp", os.Getpid(), s.tmpSeq.Add(1)))
	err = s.retryIO(ctx, func() error {
		if werr := s.fs.WriteFile(tmp, data); werr != nil {
			return werr
		}
		if werr := s.fs.MkdirAll(filepath.Dir(path)); werr != nil {
			return werr
		}
		return s.fs.Rename(tmp, path)
	})
	if err != nil {
		s.writeErrs.Add(1)
		s.recordFailure()
		span.SetAttr("outcome", "error")
		span.SetAttr("error", err.Error())
		_ = s.attempt(func() error { return s.fs.Remove(tmp) })
		return false
	}
	s.recordSuccess()
	s.writes.Add(1)
	span.SetAttr("outcome", "written")
	span.SetAttr("bytes", len(payload))
	return true
}
