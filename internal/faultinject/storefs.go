package faultinject

import (
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"vipipe/internal/pipeline"
)

// StoreFS interposes deterministic disk faults under a
// pipeline.DiskStore: IO errors (EIO, ENOSPC) on the next N reads or
// writes, a torn write that persists only a prefix of the bytes (the
// crash the store's atomic-rename discipline defends against, forced
// past it), and a fixed per-operation delay emulating a slow disk.
// All controls are safe for concurrent use; faults are consumed in
// operation order, so tests arm an exact failure budget and assert
// the recovery that follows it.
type StoreFS struct {
	Inner pipeline.FS

	mu         sync.Mutex
	failReads  int   // fail the next N ReadFile calls with errRead
	failWrites int   // fail the next N WriteFile/Rename calls with errWrite
	tearWrites int   // truncate the next N WriteFile payloads to half
	errRead    error // defaults to syscall.EIO
	errWrite   error // defaults to syscall.EIO

	delay atomic.Int64 // per-op delay, nanoseconds

	Reads  atomic.Int64 // ReadFile calls reaching this layer
	Writes atomic.Int64 // WriteFile calls reaching this layer
}

// NewStoreFS wraps inner (the real filesystem when nil).
//
//lint:ignore deadcode test support: the pipeline TestDiskStore* fault tests
func NewStoreFS(inner pipeline.FS) *StoreFS {
	if inner == nil {
		inner = pipeline.OSFS()
	}
	return &StoreFS{Inner: inner}
}

// FailReads arms err (EIO when nil) on the next n ReadFile calls.
//
//lint:ignore deadcode test support: TestDiskStoreDegradedRecovery
func (f *StoreFS) FailReads(n int, err error) {
	if err == nil {
		err = syscall.EIO
	}
	f.mu.Lock()
	f.failReads, f.errRead = n, err
	f.mu.Unlock()
}

// FailWrites arms err (EIO when nil; use syscall.ENOSPC for a full
// disk) on the next n WriteFile/Rename calls.
//
//lint:ignore deadcode test support: TestDiskStoreENOSPC
func (f *StoreFS) FailWrites(n int, err error) {
	if err == nil {
		err = syscall.EIO
	}
	f.mu.Lock()
	f.failWrites, f.errWrite = n, err
	f.mu.Unlock()
}

// TearWrites makes the next n WriteFile calls persist only the first
// half of their payload and then report success — a torn write a
// crashed kernel could leave behind, which only the checksum footer
// can catch.
//
//lint:ignore deadcode test support: TestDiskStoreTornWrite
func (f *StoreFS) TearWrites(n int) {
	f.mu.Lock()
	f.tearWrites = n
	f.mu.Unlock()
}

// SetDelay imposes d of latency on every operation (slow disk).
//
//lint:ignore deadcode test support: TestDiskStoreSlowDisk
func (f *StoreFS) SetDelay(d time.Duration) { f.delay.Store(int64(d)) }

func (f *StoreFS) sleep() {
	if d := f.delay.Load(); d > 0 {
		time.Sleep(time.Duration(d))
	}
}

func (f *StoreFS) MkdirAll(dir string) error {
	f.sleep()
	return f.Inner.MkdirAll(dir)
}

func (f *StoreFS) ReadFile(path string) ([]byte, error) {
	f.sleep()
	f.Reads.Add(1)
	f.mu.Lock()
	if f.failReads > 0 {
		f.failReads--
		err := f.errRead
		f.mu.Unlock()
		return nil, err
	}
	f.mu.Unlock()
	return f.Inner.ReadFile(path)
}

func (f *StoreFS) WriteFile(path string, data []byte) error {
	f.sleep()
	f.Writes.Add(1)
	f.mu.Lock()
	if f.failWrites > 0 {
		f.failWrites--
		err := f.errWrite
		f.mu.Unlock()
		return err
	}
	if f.tearWrites > 0 {
		f.tearWrites--
		f.mu.Unlock()
		if err := f.Inner.WriteFile(path, data[:len(data)/2]); err != nil {
			return err
		}
		return nil // the tear is silent: the writer believes it succeeded
	}
	f.mu.Unlock()
	return f.Inner.WriteFile(path, data)
}

func (f *StoreFS) Rename(old, new string) error {
	f.sleep()
	f.mu.Lock()
	if f.failWrites > 0 {
		f.failWrites--
		err := f.errWrite
		f.mu.Unlock()
		return err
	}
	f.mu.Unlock()
	return f.Inner.Rename(old, new)
}

func (f *StoreFS) Remove(path string) error {
	f.sleep()
	return f.Inner.Remove(path)
}
