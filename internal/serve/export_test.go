package serve

import "hpcfail/internal/engine"

// SetFoldHook installs fn to run in each tenant's folder goroutine just
// before a batch is applied — the deterministic lever the backpressure
// tests use to hold a queue full. A nil fn removes the hook.
func (s *Server) SetFoldHook(fn func(tenant string)) {
	if fn == nil {
		s.foldHook.Store(nil)
		return
	}
	s.foldHook.Store(&fn)
}

// WALOffset exposes a tenant's current WAL offset for the chaos tests'
// truncation-point arithmetic.
func (s *Server) WALOffset(tenant string) int64 {
	t, ok := s.lookupTenant(tenant)
	if !ok {
		return -1
	}
	t.foldMu.Lock()
	defer t.foldMu.Unlock()
	return t.wal.offset
}

// WALMagicLen is the size of the WAL file header.
const WALMagicLen = len(walMagic)

// QueueLen reports how many batches are waiting in a tenant's ingest
// queue, so the backpressure tests can fill it deterministically.
func (s *Server) QueueLen(tenant string) int {
	t, ok := s.lookupTenant(tenant)
	if !ok {
		return -1
	}
	return len(t.queue)
}

// AppendWALPayload and DecodeWALPayload expose the WAL payload codec to
// the format golden and fuzz tests.
var (
	AppendWALPayload = appendWALPayload
	DecodeWALPayload = decodeWALPayload
)

// RestoreSnapshot runs the server-snapshot decoder over data for a
// server configured by cfg, without recovering WALs or starting any
// goroutine, and returns the restored state re-marshaled.
func RestoreSnapshot(cfg Config, data []byte) ([]byte, error) {
	cfg.applyDefaults()
	s := &Server{cfg: cfg, eng: engine.New(cfg.Engine), tenants: make(map[string]*tenant)}
	if err := s.restoreSnapshot(data); err != nil {
		return nil, err
	}
	return s.marshalSnapshot()
}
