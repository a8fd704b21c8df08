package vfs

import (
	"sync/atomic"
	"time"
)

// DiskProfile parameterizes the virtual disk: a positioned I/O that
// seeks (seekMarks, the model StatsFS counts) pays SeekLatency, and every
// byte pays 1/Bandwidth.  The two stock profiles approximate the
// paper's testbed (Intel DC S3710 SSD and a 10k-RPM SEAGATE HDD); what
// matters for reproduction is their *ratio* of seek cost to bandwidth,
// which is what separates HDD results from SSD results in the paper.
type DiskProfile struct {
	Name           string
	SeekLatency    time.Duration
	ReadBandwidth  int64 // bytes per second
	WriteBandwidth int64 // bytes per second
}

// HDDProfile models the paper's 1.2 TB 10000-RPM drive.
func HDDProfile() DiskProfile {
	return DiskProfile{Name: "HDD", SeekLatency: 8 * time.Millisecond,
		ReadBandwidth: 150 << 20, WriteBandwidth: 150 << 20}
}

// SSDProfile models the paper's 200 GB Intel DC S3710.
func SSDProfile() DiskProfile {
	return DiskProfile{Name: "SSD", SeekLatency: 80 * time.Microsecond,
		ReadBandwidth: 500 << 20, WriteBandwidth: 450 << 20}
}

// DiskClock accumulates simulated device time.  All handles of one Disk
// share a clock, modelling one device servicing all traffic serially —
// the bandwidth-saturation regime the paper's write-heavy experiments
// operate in.
type DiskClock struct {
	elapsed atomic.Int64 // nanoseconds
}

// Elapsed reports total simulated device time so far.
func (c *DiskClock) Elapsed() time.Duration { return time.Duration(c.elapsed.Load()) }

// Now is Elapsed under the name the metrics layer's Clock interface
// expects, so a DiskClock can drive event durations and latency
// histograms in virtual device time.
func (c *DiskClock) Now() time.Duration { return c.Elapsed() }

// Disk wraps an FS with the virtual-clock cost model.  It performs the
// underlying I/O for real (against MemFS or OSFS) and charges the clock
// as the modelled device would.
type Disk struct {
	FS
	profile DiskProfile
	clock   *DiskClock
}

// NewDisk wraps fs with profile p, charging clock.  A nil clock gets a
// fresh one.
func NewDisk(fs FS, p DiskProfile, clock *DiskClock) *Disk {
	if clock == nil {
		clock = new(DiskClock)
	}
	return &Disk{FS: fs, profile: p, clock: clock}
}

// Clock returns the disk's virtual clock.
func (d *Disk) Clock() *DiskClock { return d.clock }

// charge bills one I/O of n bytes at bandwidth bw, plus a seek if it
// seeked.
func (d *Disk) charge(n int, bw int64, seek bool) {
	var cost time.Duration
	if bw > 0 {
		cost = time.Duration(int64(n) * int64(time.Second) / bw)
	}
	if seek {
		cost += d.profile.SeekLatency
	}
	d.clock.elapsed.Add(int64(cost))
}

// Create implements FS.
func (d *Disk) Create(name string) (File, error) { return d.wrap(d.FS.Create(name)) }

// Open implements FS.
func (d *Disk) Open(name string) (File, error) { return d.wrap(d.FS.Open(name)) }

func (d *Disk) wrap(f File, err error) (File, error) {
	if err != nil {
		return nil, err
	}
	return &diskFile{File: f, d: d}, nil
}

type diskFile struct {
	File
	d     *Disk
	marks seekMarks
}

func (f *diskFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.File.ReadAt(p, off)
	f.d.charge(n, f.d.profile.ReadBandwidth, seeked(&f.marks.read, off, n))
	return n, err
}

func (f *diskFile) WriteAt(p []byte, off int64) (int, error) {
	n, err := f.File.WriteAt(p, off)
	f.d.charge(n, f.d.profile.WriteBandwidth, seeked(&f.marks.write, off, n))
	return n, err
}

// Write is a sequential append: transfer cost only (the OS coalesces log
// appends; charging a seek per WAL record would double-count).
func (f *diskFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.d.charge(n, f.d.profile.WriteBandwidth, false)
	return n, err
}
