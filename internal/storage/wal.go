package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
)

// Write-ahead log for the document facade's group-commit write path. One
// WAL holds the mutation history of one document since its base image: a
// fixed segment header followed by CRC-framed records, each record the
// opaque encoding of one logical mutation (the document layer owns the
// payload format). The log is the durability point of the write path —
// a writer whose Append returned under SyncAlways or SyncGroup holds a
// mutation that survives a crash — while epoch publication happens later,
// asynchronously, in batches.
//
// # Frame format
//
//	segment: magic "ruidwal1" (8 bytes)
//	record:  u32 payload length | u32 CRC-32C of payload | payload
//
// Length and CRC are little-endian. A record is durable iff its full frame
// is on disk and the CRC matches. Recovery scans frames in order and stops
// at the first violation — truncated frame, impossible length, or CRC
// mismatch — then truncates the file back to the last intact record, so a
// torn tail from a crashed append can never be replayed and the next
// Append extends a clean log. Records are replayed in append order; the
// caller decides what a record means and whether a failing replay is
// skippable.
//
// # Sync policies
//
//	SyncAlways  fsync inside every Append before it returns.
//	SyncGroup   Append returns only after an fsync covers its record, but
//	            concurrent appenders share one fsync (classic group
//	            commit): the first waiter becomes the sync leader, later
//	            waiters piggyback on its barrier.
//	SyncNone    never fsync (the OS flushes on its own schedule); Append
//	            is an ack of the write system call only. Crash durability
//	            is then best-effort — the recovery invariants still hold,
//	            the guarantee window is just smaller.

// SyncPolicy selects the WAL's fsync discipline.
type SyncPolicy int

const (
	// SyncGroup coalesces the fsyncs of concurrent appenders (default).
	SyncGroup SyncPolicy = iota
	// SyncAlways fsyncs every append individually.
	SyncAlways
	// SyncNone never fsyncs.
	SyncNone
)

// ParseSyncPolicy resolves the flag spellings used by cmd/ruidd.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "", "group":
		return SyncGroup, nil
	case "always":
		return SyncAlways, nil
	case "none":
		return SyncNone, nil
	}
	return SyncGroup, fmt.Errorf("storage: unknown sync policy %q (want always, group or none)", s)
}

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncNone:
		return "none"
	default:
		return "group"
	}
}

const walMagic = "ruidwal1"

// walCRC is the Castagnoli table (hardware-accelerated on amd64/arm64).
var walCRC = crc32.MakeTable(crc32.Castagnoli)

// ErrWALCorrupt reports a WAL whose segment header is unreadable — as
// opposed to a torn record tail, which recovery repairs silently.
var ErrWALCorrupt = errors.New("storage: WAL segment header corrupt")

// WALStats are cumulative counters of one WAL since open.
type WALStats struct {
	Appends   int64 // records appended this process
	Syncs     int64 // fsync system calls issued
	Bytes     int64 // payload bytes appended this process
	Recovered int64 // intact records replayed at open
	Truncated int64 // bytes cut from a torn tail at open
}

// WAL is an append-only, CRC-framed mutation log. Safe for concurrent use.
type WAL struct {
	mu     sync.Mutex // serializes file writes and the append counter
	f      *os.File
	closed bool
	policy SyncPolicy
	seq    int64 // records written (not necessarily synced)

	// Group-commit sync state: synced is the highest seq covered by a
	// completed fsync, leader marks an fsync in flight. Waiters block on
	// cond until their record is covered.
	smu    sync.Mutex
	cond   *sync.Cond
	synced int64
	leader bool

	st struct {
		sync.Mutex
		WALStats
	}
}

// CreateWAL creates (or truncates) a fresh log at path.
func CreateWAL(path string, policy SyncPolicy) (*WAL, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write([]byte(walMagic)); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	w := &WAL{f: f, policy: policy}
	w.cond = sync.NewCond(&w.smu)
	return w, nil
}

// OpenWAL opens path, creating it when absent, and replays every intact
// record through fn in append order before returning. A torn or corrupt
// tail is truncated away — Recovered and Truncated in Stats report what
// was kept and what was cut — and the returned WAL appends after the last
// intact record. fn may be nil to recover positioning only.
func OpenWAL(path string, policy SyncPolicy, fn func(payload []byte) error) (*WAL, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	w := &WAL{f: f, policy: policy}
	w.cond = sync.NewCond(&w.smu)
	if err := w.recover(fn); err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}

// recover scans the log, replays intact records and truncates the torn
// tail. The file offset is left at the end of the valid prefix.
func (w *WAL) recover(fn func([]byte) error) error {
	info, err := w.f.Stat()
	if err != nil {
		return err
	}
	if info.Size() == 0 {
		// Fresh file (OpenWAL with O_CREATE): write the header.
		if _, err := w.f.Write([]byte(walMagic)); err != nil {
			return err
		}
		return w.f.Sync()
	}
	hdr := make([]byte, len(walMagic))
	if _, err := io.ReadFull(w.f, hdr); err != nil || string(hdr) != walMagic {
		return fmt.Errorf("%w: %q", ErrWALCorrupt, hdr)
	}
	valid := int64(len(walMagic))
	var frame [8]byte
	for {
		if _, err := io.ReadFull(w.f, frame[:]); err != nil {
			break // clean EOF or torn frame header: stop
		}
		n := binary.LittleEndian.Uint32(frame[0:4])
		sum := binary.LittleEndian.Uint32(frame[4:8])
		if n == 0 || int64(n) > info.Size() {
			break // impossible length: torn or corrupt
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(w.f, payload); err != nil {
			break // truncated payload
		}
		if crc32.Checksum(payload, walCRC) != sum {
			break // corrupted record: nothing beyond it is trustworthy
		}
		if fn != nil {
			if err := fn(payload); err != nil {
				return err
			}
		}
		valid += 8 + int64(n)
		w.seq++
		w.st.Recovered++
	}
	if cut := info.Size() - valid; cut > 0 {
		w.st.Truncated = cut
		if err := w.f.Truncate(valid); err != nil {
			return err
		}
	}
	_, err = w.f.Seek(valid, io.SeekStart)
	return err
}

// Append frames payload, writes it, and blocks until the record is as
// durable as the policy promises. It returns the record's sequence number
// (1-based). Safe for concurrent use; under SyncGroup concurrent appenders
// share fsync barriers. Append is AppendNoSync followed by WaitDurable.
func (w *WAL) Append(payload []byte) (int64, error) {
	seq, err := w.AppendNoSync(payload)
	if err != nil {
		return seq, err
	}
	return seq, w.WaitDurable(seq)
}

// AppendNoSync frames payload and writes it in append order without waiting
// for durability; callers pair it with WaitDurable(seq). The write itself is
// serialized under the internal mutex, so sequence numbers reflect on-disk
// record order — the group committer relies on this to keep its intake queue
// in WAL order (it holds its own ordering lock across AppendNoSync and the
// queue send, then waits for durability outside that lock so fsyncs still
// coalesce).
func (w *WAL) AppendNoSync(payload []byte) (int64, error) {
	if len(payload) == 0 {
		return 0, errors.New("storage: empty WAL record")
	}
	frame := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, walCRC))
	copy(frame[8:], payload)

	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return 0, errors.New("storage: WAL is closed")
	}
	if _, err := w.f.Write(frame); err != nil {
		w.mu.Unlock()
		return 0, err
	}
	w.seq++
	seq := w.seq
	w.mu.Unlock()

	w.st.Lock()
	w.st.Appends++
	w.st.Bytes += int64(len(payload))
	w.st.Unlock()
	return seq, nil
}

// WaitDurable blocks until an fsync covers seq, per the policy: SyncAlways
// issues its own fsync, SyncGroup joins the shared leader-elected barrier,
// SyncNone returns immediately.
func (w *WAL) WaitDurable(seq int64) error {
	switch w.policy {
	case SyncAlways:
		return w.fsync(seq)
	case SyncGroup:
		return w.awaitSync(seq)
	}
	return nil
}

// SyncTo returns once an fsync covers seq. The commit loop's
// publish-after-durable barrier: no mutation becomes visible to readers
// before its record is on disk. It joins the group barrier, so a batch
// whose enqueuer already leads a covering fsync waits for that one instead
// of issuing a second, and on the hot path it returns at once.
func (w *WAL) SyncTo(seq int64) error {
	return w.awaitSync(seq)
}

// fsync issues one fsync and publishes the covered sequence number.
func (w *WAL) fsync(upto int64) error {
	err := w.f.Sync()
	w.st.Lock()
	w.st.Syncs++
	w.st.Unlock()
	w.smu.Lock()
	if err == nil && upto > w.synced {
		w.synced = upto
	}
	w.smu.Unlock()
	return err
}

// awaitSync blocks until an fsync covers seq, electing the first waiter of
// each wave as the sync leader so N concurrent appenders cost one fsync.
func (w *WAL) awaitSync(seq int64) error {
	w.smu.Lock()
	for {
		if w.synced >= seq {
			w.smu.Unlock()
			return nil
		}
		if !w.leader {
			w.leader = true
			w.smu.Unlock()
			// Cover everything appended so far, not just seq: records that
			// landed between our append and our election ride along.
			w.mu.Lock()
			upto := w.seq
			w.mu.Unlock()
			err := w.f.Sync()
			w.st.Lock()
			w.st.Syncs++
			w.st.Unlock()
			w.smu.Lock()
			w.leader = false
			if err == nil && upto > w.synced {
				w.synced = upto
			}
			w.cond.Broadcast()
			if err != nil {
				w.smu.Unlock()
				return err
			}
			continue
		}
		w.cond.Wait()
	}
}

// Sync forces an fsync covering every record appended so far. The commit
// loop calls it once per batch under SyncNone-leaning configurations that
// still want a durability edge at batch boundaries.
func (w *WAL) Sync() error {
	w.mu.Lock()
	upto := w.seq
	w.mu.Unlock()
	return w.fsync(upto)
}

// Seq returns the sequence number of the last appended record.
func (w *WAL) Seq() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq
}

// Stats returns the WAL's cumulative counters.
func (w *WAL) Stats() WALStats {
	w.st.Lock()
	defer w.st.Unlock()
	return w.st.WALStats
}

// Path returns the underlying file's path.
func (w *WAL) Path() string { return w.f.Name() }

// Policy returns the WAL's sync policy.
func (w *WAL) Policy() SyncPolicy { return w.policy }

// Close fsyncs and closes the log. Further Appends fail.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	err := w.f.Sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}
