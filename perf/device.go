package main

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/storage"
)

// countingDevice decorates a storage.Device so the storage layer is
// measured from outside: calls, bytes and wall-clock busy time per
// direction, and the peak of the bytes its files hold. Only traced runs
// use it; end-to-end numbers come from the undecorated device.
//
// Busy time is summed over calls, so with the disk engine's prefetch and
// writeback goroutines it can exceed the wall time of the phase it
// overlaps: it is how long the device worked, not how long the job waited.
type countingDevice struct {
	storage.Device

	readCalls, writeCalls atomic.Int64
	readBytes, writeBytes atomic.Int64
	readBusy, writeBusy   atomic.Int64 // nanoseconds

	mu    sync.Mutex
	sizes map[string]int64
	held  int64 // bytes currently in files
	peak  int64
}

func newCountingDevice(inner storage.Device) *countingDevice {
	return &countingDevice{Device: inner, sizes: map[string]int64{}}
}

// deviceCounts is a snapshot of the decorator's counters.
type deviceCounts struct {
	readCalls, writeCalls int64
	readBytes, writeBytes int64
	readBusy, writeBusy   time.Duration
	peakBytes             int64
}

func (d *countingDevice) counts() deviceCounts {
	d.mu.Lock()
	peak := d.peak
	d.mu.Unlock()
	return deviceCounts{
		readCalls: d.readCalls.Load(), writeCalls: d.writeCalls.Load(),
		readBytes: d.readBytes.Load(), writeBytes: d.writeBytes.Load(),
		readBusy:  time.Duration(d.readBusy.Load()),
		writeBusy: time.Duration(d.writeBusy.Load()),
		peakBytes: peak,
	}
}

// reset zeroes the call counters and restarts the peak from what the
// files hold now.
func (d *countingDevice) reset() {
	d.readCalls.Store(0)
	d.writeCalls.Store(0)
	d.readBytes.Store(0)
	d.writeBytes.Store(0)
	d.readBusy.Store(0)
	d.writeBusy.Store(0)
	d.mu.Lock()
	d.peak = d.held
	d.mu.Unlock()
}

// resize records that the named file now holds size bytes.
func (d *countingDevice) resize(name string, size int64) {
	d.mu.Lock()
	d.held += size - d.sizes[name]
	d.sizes[name] = size
	if d.held > d.peak {
		d.peak = d.held
	}
	d.mu.Unlock()
}

func (d *countingDevice) Create(name string) (storage.File, error) {
	f, err := d.Device.Create(name)
	if err != nil {
		return nil, err
	}
	d.resize(name, 0)
	return &countingFile{File: f, dev: d, name: name}, nil
}

func (d *countingDevice) Open(name string) (storage.File, error) {
	f, err := d.Device.Open(name)
	if err != nil {
		return nil, err
	}
	d.resize(name, f.Size())
	return &countingFile{File: f, dev: d, name: name}, nil
}

func (d *countingDevice) Remove(name string) error {
	if err := d.Device.Remove(name); err != nil {
		return err
	}
	d.mu.Lock()
	d.held -= d.sizes[name]
	delete(d.sizes, name)
	d.mu.Unlock()
	return nil
}

type countingFile struct {
	storage.File
	dev  *countingDevice
	name string
}

func (f *countingFile) ReadAt(p []byte, off int64) (int, error) {
	t := time.Now()
	n, err := f.File.ReadAt(p, off)
	f.dev.readBusy.Add(int64(time.Since(t)))
	f.dev.readCalls.Add(1)
	f.dev.readBytes.Add(int64(n))
	return n, err
}

func (f *countingFile) WriteAt(p []byte, off int64) (int, error) {
	t := time.Now()
	n, err := f.File.WriteAt(p, off)
	f.dev.writeBusy.Add(int64(time.Since(t)))
	f.dev.writeCalls.Add(1)
	f.dev.writeBytes.Add(int64(n))
	if n > 0 {
		f.dev.resize(f.name, f.File.Size())
	}
	return n, err
}

func (f *countingFile) Truncate(size int64) error {
	if err := f.File.Truncate(size); err != nil {
		return err
	}
	f.dev.resize(f.name, f.File.Size())
	return nil
}
