// Package serve is the failure-analytics daemon: a long-lived HTTP/JSON
// service that ingests failure-record streams for many tenants
// concurrently, folds each stream into a crash-recoverable incremental
// analysis (engine.Incremental), and answers fit/CI/rate/summary queries
// from copy-on-write snapshots without ever blocking writers.
//
// Robustness contract:
//
//   - Backpressure: each tenant has a bounded ingest queue; a full queue
//     answers 429 with Retry-After instead of buffering without bound.
//     Request bodies are byte- and record-capped, and slow clients hit a
//     read deadline.
//
//   - Crash recovery: every accepted batch is framed into a per-tenant
//     write-ahead log before it is folded; the server periodically writes
//     an atomic snapshot of all tenant state. Restart restores the last
//     snapshot and replays the WAL suffix behind it, truncating a torn
//     tail, and reaches a state byte-identical to the pre-crash one —
//     reservoir subsamples included — so every query answers
//     identically. A snapshot whose fold state predates the current
//     streamstats format is dropped and every WAL replayed from its
//     start instead.
//
//   - Graceful degradation and shutdown: malformed rows are quarantined
//     (lenient CSV mode) instead of failing the batch; cancellation is
//     plumbed from the connection into the CSV scanner; SIGTERM drains
//     queued batches, then writes a final snapshot.
//
//   - Exactly-once ingest: clients stamp batches with an Ingest-Id; a
//     retried ID inside the dedupe window is acknowledged with its
//     original outcome and never folded twice. The bundled client
//     (serve/client) retries with exponential backoff and honors
//     Retry-After.
package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hpcfail/internal/binx"
	"hpcfail/internal/engine"
	"hpcfail/internal/streamstats"
)

// Config parameterizes a Server. The zero value of every optional field
// selects the documented default.
type Config struct {
	// DataDir is the durability root: the snapshot lives at
	// DataDir/snapshot.bin, per-tenant WALs under DataDir/wal/. Required.
	DataDir string
	// Engine configures the fitting engine shared by all tenants. The
	// engine keeps no fit state between calls, so sharing it is safe.
	Engine engine.Options
	// Stream configures sharding and streaming accuracy for every
	// tenant's incremental analysis. Changing it across restarts is
	// refused at restore (engine.ErrIncMismatch) rather than silently
	// reinterpreting folded state.
	Stream engine.StreamOptions
	// QueueDepth bounds each tenant's pending ingest batches; a full
	// queue answers 429. <= 0 uses 64.
	QueueDepth int
	// MaxBodyBytes caps an ingest request body; beyond it the batch is
	// rejected with 413. <= 0 uses 8 MiB.
	MaxBodyBytes int64
	// MaxBatchRecords caps the records in one batch; <= 0 uses 100000.
	MaxBatchRecords int
	// ReadTimeout is the deadline for reading one ingest body, guarding
	// the folder pipeline against slow-loris clients; <= 0 uses 30s.
	ReadTimeout time.Duration
	// DedupeWindow is how many distinct Ingest-Ids per tenant are
	// remembered for exactly-once acknowledgement; <= 0 uses 256.
	DedupeWindow int
	// QuarantineKeep bounds the in-memory ring of malformed-row
	// diagnostics per tenant; <= 0 uses 100.
	QuarantineKeep int
	// SnapshotInterval is the period of the background snapshot loop; 0
	// disables periodic snapshots (shutdown still writes a final one).
	SnapshotInterval time.Duration
	// SyncWAL fsyncs the WAL after every appended batch. Off, durability
	// is bounded by the OS page cache (a machine crash can lose recently
	// acknowledged batches; a process crash cannot).
	SyncWAL bool
}

func (c *Config) applyDefaults() {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.MaxBatchRecords <= 0 {
		c.MaxBatchRecords = 100000
	}
	if c.ReadTimeout <= 0 {
		c.ReadTimeout = 30 * time.Second
	}
	if c.DedupeWindow <= 0 {
		c.DedupeWindow = 256
	}
	if c.QuarantineKeep <= 0 {
		c.QuarantineKeep = 100
	}
}

// Server is the analytics daemon. Construct with New, expose Handler over
// HTTP, stop with Shutdown.
type Server struct {
	cfg Config
	eng *engine.Engine

	mu       sync.Mutex
	tenants  map[string]*tenant
	draining bool

	// ingests tracks in-flight ingest handlers so Shutdown can wait for
	// admissions to settle before closing queues; folders tracks the
	// per-tenant fold goroutines.
	ingests sync.WaitGroup
	folders sync.WaitGroup

	snapMu   sync.Mutex // serializes whole-server snapshot writes
	stopSnap chan struct{}
	snapDone chan struct{}

	started time.Time

	// foldHook, when set (tests only), runs in the folder goroutine
	// before each batch is applied — the deterministic way to hold the
	// queue full and observe 429s.
	foldHook atomic.Pointer[func(tenant string)]
}

// New builds a Server over cfg.DataDir, creating the directory layout on
// first run and recovering snapshot + WAL state on any later one. After
// recovery it writes a fresh snapshot, so the on-disk pair is immediately
// consistent even if the previous process died between snapshots.
func New(cfg Config) (*Server, error) {
	if cfg.DataDir == "" {
		return nil, errors.New("serve: Config.DataDir is required")
	}
	cfg.applyDefaults()
	if err := os.MkdirAll(filepath.Join(cfg.DataDir, "wal"), 0o755); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	s := &Server{
		cfg:      cfg,
		eng:      engine.New(cfg.Engine),
		tenants:  make(map[string]*tenant),
		stopSnap: make(chan struct{}),
		snapDone: make(chan struct{}),
		started:  time.Now(),
	}
	if err := s.recover(); err != nil {
		s.closeWALs()
		return nil, err
	}
	if err := s.Snapshot(); err != nil {
		s.closeWALs()
		return nil, err
	}
	for _, t := range s.tenants {
		s.folders.Add(1)
		go t.run()
	}
	go s.snapshotLoop()
	return s, nil
}

func (s *Server) snapshotLoop() {
	defer close(s.snapDone)
	if s.cfg.SnapshotInterval <= 0 {
		<-s.stopSnap
		return
	}
	tick := time.NewTicker(s.cfg.SnapshotInterval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			// Best effort: a failed periodic snapshot leaves the previous
			// one in place and recovery falls back to a longer WAL replay.
			_ = s.Snapshot()
		case <-s.stopSnap:
			return
		}
	}
}

func (s *Server) closeWALs() {
	for _, t := range s.tenants {
		if t.wal != nil {
			t.wal.close()
		}
	}
}

// validTenantName reports whether a tenant name is acceptable: short,
// non-empty, and made of filename-safe characters (it keys a WAL file).
func validTenantName(name string) bool {
	if name == "" || len(name) > 64 {
		return false
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
		default:
			return false
		}
	}
	return true
}

func (s *Server) walPath(tenant string) string {
	return filepath.Join(s.cfg.DataDir, "wal", tenant+".wal")
}

func (s *Server) snapshotPath() string {
	return filepath.Join(s.cfg.DataDir, "snapshot.bin")
}

// tenantLocked returns the named tenant, creating it (fresh incremental,
// fresh WAL) on first reference. Callers hold s.mu.
func (s *Server) tenantLocked(name string) (*tenant, error) {
	if t, ok := s.tenants[name]; ok {
		return t, nil
	}
	w, err := createWAL(s.walPath(name), s.cfg.SyncWAL)
	if err != nil {
		return nil, fmt.Errorf("serve: tenant %s: %w", name, err)
	}
	t := s.newTenant(name, s.eng.NewIncremental(s.cfg.Stream), w)
	s.tenants[name] = t
	s.folders.Add(1)
	go t.run()
	return t, nil
}

// getTenant resolves a tenant for an ingest, refusing new work while
// draining.
func (s *Server) getTenant(name string, createOK bool) (*tenant, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, errDraining
	}
	if !createOK {
		if t, ok := s.tenants[name]; ok {
			return t, nil
		}
		return nil, errNoTenant
	}
	return s.tenantLocked(name)
}

var (
	errDraining = errors.New("serve: draining")
	errNoTenant = errors.New("serve: no such tenant")
)

// lookupTenant is the read-only resolution used by query handlers; it
// works while draining (queries stay available until the process exits).
func (s *Server) lookupTenant(name string) (*tenant, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tenants[name]
	return t, ok
}

// TenantNames lists the known tenants, sorted.
func (s *Server) TenantNames() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.tenants))
	for name := range s.tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Engine exposes the shared fitting engine (work counters, etc.).
func (s *Server) Engine() *engine.Engine { return s.eng }

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Shutdown drains and stops the server: new ingests are refused with 503,
// in-flight and queued batches are folded to completion, the snapshot
// loop stops, and a final snapshot is written so the next start replays
// nothing. Query handlers keep working throughout. The context bounds the
// final snapshot write only; the drain itself is bounded by the queues,
// which stop admitting as soon as draining flips.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		<-s.snapDone
		return nil
	}
	s.draining = true
	tenants := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		tenants = append(tenants, t)
	}
	s.mu.Unlock()

	// Admissions first: every handler that passed the draining check has
	// registered in ingests, so after Wait no new job can enter a queue.
	s.ingests.Wait()
	for _, t := range tenants {
		t.closeQueue()
	}
	s.folders.Wait()

	close(s.stopSnap)
	<-s.snapDone

	errc := make(chan error, 1)
	go func() { errc <- s.Snapshot() }()
	var err error
	select {
	case err = <-errc:
	case <-ctx.Done():
		err = ctx.Err()
	}
	s.closeWALs()
	return err
}

// Server snapshot codec: one atomic file capturing every tenant's
// recovery state.
//
//	magic "HFSRV01\n"
//	uvarint tenant count
//	per tenant, sorted by name:
//	  len-prefixed name
//	  u64le WAL offset          (frames below it are folded in the blob)
//	  uvarint accepted | quarantined | duplicates
//	  dedupe window: uvarint n; n × (len-prefixed id, uvarint accepted,
//	    uvarint quarantined), oldest first
//	  uvarint blob length | engine.Incremental snapshot blob
//
// Equal states produce byte-equal files (tenants sorted, incremental
// codec deterministic) — the chaos tests compare recovery by bytes. The
// decoder accepts only that canonical form (names strictly ascending,
// dedupe ids distinct and non-empty), so a snapshot it restores
// re-encodes to its own bytes — unless the configured dedupe window
// shrank since it was written, which keeps only the newest ids.
var srvMagic = [8]byte{'H', 'F', 'S', 'R', 'V', '0', '1', '\n'}

// ErrSnapshot wraps every failure to restore a server snapshot: a
// corrupt one, one whose fold state disagrees with the configured stream
// options, and one too old to restore whose WAL is missing.
var ErrSnapshot = errors.New("serve: cannot restore server snapshot")

// Snapshot writes a point-in-time snapshot of all tenant state to
// DataDir/snapshot.bin via a temp file and an atomic rename. Each
// tenant's (WAL offset, fold state, dedupe window) triple is captured
// under its fold lock, so the triple is internally consistent even while
// that tenant keeps ingesting.
func (s *Server) Snapshot() error {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	buf, err := s.marshalSnapshot()
	if err != nil {
		return err
	}

	tmp, err := os.CreateTemp(s.cfg.DataDir, "snapshot-*.tmp")
	if err != nil {
		return fmt.Errorf("serve: snapshot: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		return fmt.Errorf("serve: snapshot: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("serve: snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("serve: snapshot: %w", err)
	}
	if err := os.Rename(tmp.Name(), s.snapshotPath()); err != nil {
		return fmt.Errorf("serve: snapshot: %w", err)
	}
	return nil
}

// marshalSnapshot encodes every tenant's recovery state in the HFSRV01
// format.
func (s *Server) marshalSnapshot() ([]byte, error) {
	s.mu.Lock()
	names := make([]string, 0, len(s.tenants))
	for name := range s.tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	tenants := make([]*tenant, len(names))
	for i, name := range names {
		tenants[i] = s.tenants[name]
	}
	s.mu.Unlock()

	buf := append([]byte(nil), srvMagic[:]...)
	buf = binary.AppendUvarint(buf, uint64(len(names)))
	for i, t := range tenants {
		t.foldMu.Lock()
		blob := &bytes.Buffer{}
		err := t.inc.WriteSnapshot(blob)
		offset := t.wal.offset
		accepted, quarantined, duplicates := t.accepted, t.quarantined, t.duplicates
		order := append([]string(nil), t.dedupe.order...)
		results := make(map[string]IngestResult, len(order))
		for _, id := range order {
			results[id] = t.dedupe.results[id]
		}
		t.foldMu.Unlock()
		if err != nil {
			return nil, fmt.Errorf("serve: snapshot tenant %s: %w", names[i], err)
		}
		buf = binx.AppendString(buf, names[i])
		buf = binary.LittleEndian.AppendUint64(buf, uint64(offset))
		buf = binary.AppendUvarint(buf, uint64(accepted))
		buf = binary.AppendUvarint(buf, uint64(quarantined))
		buf = binary.AppendUvarint(buf, uint64(duplicates))
		buf = binary.AppendUvarint(buf, uint64(len(order)))
		for _, id := range order {
			res := results[id]
			buf = binx.AppendString(buf, id)
			buf = binary.AppendUvarint(buf, uint64(res.Accepted))
			buf = binary.AppendUvarint(buf, uint64(res.Quarantined))
		}
		buf = binary.AppendUvarint(buf, uint64(blob.Len()))
		buf = append(buf, blob.Bytes()...)
	}
	return buf, nil
}

// recover rebuilds tenant state: parse the snapshot if present, then open
// every WAL under DataDir/wal and replay the suffix behind each tenant's
// snapshot offset (the whole file for tenants the snapshot predates, and
// for every tenant when restoreSnapshot dropped an outdated snapshot).
func (s *Server) recover() error {
	snap, err := os.ReadFile(s.snapshotPath())
	switch {
	case errors.Is(err, os.ErrNotExist):
	case err != nil:
		return fmt.Errorf("serve: recover: %w", err)
	default:
		if err := s.restoreSnapshot(snap); err != nil {
			return err
		}
	}

	entries, err := os.ReadDir(filepath.Join(s.cfg.DataDir, "wal"))
	if err != nil {
		return fmt.Errorf("serve: recover: %w", err)
	}
	for _, e := range entries {
		name, ok := strings.CutSuffix(e.Name(), ".wal")
		if e.IsDir() || !ok || !validTenantName(name) {
			continue
		}
		t := s.tenants[name]
		fromOffset := int64(len(walMagic))
		if t != nil {
			fromOffset = t.wal.offset // restoreSnapshot parked the snapshot offset here
		}
		w, err := createWAL(s.walPath(name), s.cfg.SyncWAL)
		if err != nil {
			return fmt.Errorf("serve: recover tenant %s: %w", name, err)
		}
		if t == nil {
			t = s.newTenant(name, s.eng.NewIncremental(s.cfg.Stream), w)
			s.tenants[name] = t
		} else {
			t.wal = w
		}
		if err := w.replay(fromOffset, t.replayBatch); err != nil {
			return fmt.Errorf("serve: recover tenant %s: %w", name, err)
		}
	}
	// A tenant present in the snapshot whose WAL file has vanished keeps
	// its snapshot state and gets a fresh, empty WAL — opened here so the
	// first post-recovery ingest does not write into a placeholder.
	for name, t := range s.tenants {
		if t.wal.f == nil {
			w, err := createWAL(s.walPath(name), s.cfg.SyncWAL)
			if err != nil {
				return fmt.Errorf("serve: recover tenant %s: %w", name, err)
			}
			t.wal = w
		}
	}
	return nil
}

// restoreSnapshot parses the snapshot blob into tenants whose WALs are
// not yet open; each tenant's snapshot WAL offset is parked in a
// placeholder wal struct for recover to pick up.
//
// A tenant whose fold state fails only on an older streamstats snapshot
// version (streamstats.ErrSnapshotVersion) cannot be restored but can be
// rebuilt: the WAL holds every batch ever folded, since it is truncated
// only at a torn tail. The whole snapshot is then dropped, leaving no
// tenants, and recover replays every WAL from its start. The quarantined
// and duplicate counters, which no WAL frame records, restart at zero. A
// dropped tenant with no WAL could not be rebuilt at all, so it refuses
// the start.
func (s *Server) restoreSnapshot(data []byte) error {
	r := binx.NewReader(data, ErrSnapshot)
	if magic := r.Bytes(len(srvMagic)); r.Err() != nil || [8]byte(magic) != srvMagic {
		return fmt.Errorf("%w: bad magic", ErrSnapshot)
	}
	// A tenant is at least a one-byte name length, the u64 WAL offset,
	// four one-byte counts and a blob length; a dedupe entry is three
	// one-byte fields.
	n := r.Count(1 + 8 + 4 + 1)
	var outdated []string
	prev := ""
	for i := 0; i < n; i++ {
		name := r.Str()
		offset := int64(r.U64())
		accepted, quarantined, duplicates := r.Uvarint(), r.Uvarint(), r.Uvarint()
		dedupe := newDedupeRing(s.cfg.DedupeWindow)
		for j, m := 0, r.Count(3); j < m; j++ {
			id := r.Str()
			if _, dup := dedupe.get(id); r.Err() == nil && (id == "" || dup) {
				return fmt.Errorf("%w: tenant %q: dedupe id %q empty or repeated", ErrSnapshot, name, id)
			}
			dedupe.add(id, IngestResult{Accepted: int(r.Uvarint()), Quarantined: int(r.Uvarint())})
		}
		blob := r.Bytes(r.Count(1))
		if err := r.Err(); err != nil {
			return err
		}
		if !validTenantName(name) {
			return fmt.Errorf("%w: tenant name %q", ErrSnapshot, name)
		}
		if i > 0 && name <= prev {
			return fmt.Errorf("%w: tenant %q after %q, want ascending names", ErrSnapshot, name, prev)
		}
		prev = name
		inc, err := s.eng.ReadIncremental(bytes.NewReader(blob), s.cfg.Stream)
		if errors.Is(err, streamstats.ErrSnapshotVersion) {
			outdated = append(outdated, name)
			continue
		}
		if err != nil {
			return fmt.Errorf("%w: restore tenant %s: %w", ErrSnapshot, name, err)
		}
		t := s.newTenant(name, inc, &wal{offset: offset})
		t.accepted = int(accepted)
		t.quarantined = int(quarantined)
		t.duplicates = int(duplicates)
		t.dedupe = dedupe
		s.tenants[name] = t
	}
	if err := r.Done(); err != nil || len(outdated) == 0 {
		return err
	}
	for name := range s.tenants {
		outdated = append(outdated, name)
	}
	for _, name := range outdated {
		if _, err := os.Stat(s.walPath(name)); err != nil {
			return fmt.Errorf("%w: it predates the streamstats format and tenant %s has no WAL to rebuild from: %w", ErrSnapshot, name, err)
		}
	}
	clear(s.tenants)
	return nil
}
