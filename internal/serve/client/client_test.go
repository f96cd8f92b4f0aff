package client

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"hpcfail/internal/resilience"
	"hpcfail/internal/serve"
)

const csvBatch = "system,node,hw,workload,cause,detail,start,end\n" +
	"1,0,A,compute,Hardware,,2005-01-01T00:00:00Z,2005-01-01T01:00:00Z\n" +
	"2,3,B,graphics,Software,,2005-01-01T02:00:00Z,2005-01-01T02:30:00Z\n"

// fastRetry keeps tests quick while still exercising the retry loop.
var fastRetry = resilience.FixedBackoff{Delay: time.Millisecond, MaxRetries: 16}

func newStub(t *testing.T, handler http.HandlerFunc) *Client {
	t.Helper()
	ts := httptest.NewServer(handler)
	t.Cleanup(ts.Close)
	c := New(ts.URL, Options{Retry: fastRetry})
	// Collapse real sleeps; the requested delays still flow through.
	c.sleep = func(ctx context.Context, d time.Duration) error { return ctx.Err() }
	return c
}

func TestIngestRetriesTransientRefusals(t *testing.T) {
	var attempts atomic.Int32
	var ids []string
	c := newStub(t, func(w http.ResponseWriter, r *http.Request) {
		ids = append(ids, r.Header.Get("Ingest-Id"))
		switch attempts.Add(1) {
		case 1:
			w.Header().Set("Retry-After", "1")
			http.Error(w, `{"error":"ingest queue full"}`, http.StatusTooManyRequests)
		case 2:
			http.Error(w, `{"error":"transient"}`, http.StatusInternalServerError)
		default:
			fmt.Fprint(w, `{"accepted":2,"quarantined":0}`)
		}
	})
	res, err := c.Ingest(context.Background(), "alpha", "id-1", []byte(csvBatch))
	if err != nil {
		t.Fatalf("ingest: %v", err)
	}
	if res.Accepted != 2 || attempts.Load() != 3 {
		t.Fatalf("got %+v after %d attempts, want 2 accepted after 3", res, attempts.Load())
	}
	for i, id := range ids {
		if id != "id-1" {
			t.Fatalf("attempt %d sent Ingest-Id %q; retries must reuse the same ID", i, id)
		}
	}
}

func TestIngestDoesNotRetryPermanentErrors(t *testing.T) {
	var attempts atomic.Int32
	c := newStub(t, func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		http.Error(w, `{"error":"bad csv header"}`, http.StatusBadRequest)
	})
	_, err := c.Ingest(context.Background(), "alpha", "id-1", []byte("junk"))
	var se *StatusError
	if !isStatus(err, &se) || se.Status != http.StatusBadRequest {
		t.Fatalf("err = %v, want StatusError 400", err)
	}
	if attempts.Load() != 1 {
		t.Fatalf("%d attempts on a 400, want exactly 1", attempts.Load())
	}
}

func TestIngestExhaustsRetryBudget(t *testing.T) {
	var attempts atomic.Int32
	c := newStub(t, func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		http.Error(w, `{"error":"draining"}`, http.StatusServiceUnavailable)
	})
	c.retry = resilience.FixedBackoff{Delay: time.Millisecond, MaxRetries: 3}
	if _, err := c.Ingest(context.Background(), "alpha", "id-1", []byte(csvBatch)); err == nil {
		t.Fatal("ingest succeeded against a permanently draining server")
	}
	if got := attempts.Load(); got != 4 {
		t.Fatalf("%d attempts, want 1 + 3 retries", got)
	}
}

func TestIngestHonorsRetryAfter(t *testing.T) {
	var attempts atomic.Int32
	var slept []time.Duration
	c := newStub(t, func(w http.ResponseWriter, r *http.Request) {
		if attempts.Add(1) == 1 {
			w.Header().Set("Retry-After", "2")
			http.Error(w, `{"error":"queue full"}`, http.StatusTooManyRequests)
			return
		}
		fmt.Fprint(w, `{"accepted":2,"quarantined":0}`)
	})
	c.sleep = func(ctx context.Context, d time.Duration) error {
		slept = append(slept, d)
		return nil
	}
	if _, err := c.Ingest(context.Background(), "alpha", "id-1", []byte(csvBatch)); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	// The policy's delay is 1ms; the server asked for 2s, and the larger
	// hint must win.
	if len(slept) != 1 || slept[0] < 2*time.Second {
		t.Fatalf("slept %v, want one wait of at least the 2s Retry-After hint", slept)
	}
}

// TestIngestHonorsRetryAfterDate is the regression test for the hint
// parser ignoring RFC 9110's HTTP-date form: the server names an
// absolute time and the client must wait until it, not fall back to the
// policy's 1ms delay.
func TestIngestHonorsRetryAfterDate(t *testing.T) {
	var attempts atomic.Int32
	var slept []time.Duration
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	c := newStub(t, func(w http.ResponseWriter, r *http.Request) {
		if attempts.Add(1) == 1 {
			w.Header().Set("Retry-After", now.Add(30*time.Second).Format(http.TimeFormat))
			http.Error(w, `{"error":"queue full"}`, http.StatusTooManyRequests)
			return
		}
		fmt.Fprint(w, `{"accepted":2,"quarantined":0}`)
	})
	c.now = func() time.Time { return now }
	c.sleep = func(ctx context.Context, d time.Duration) error {
		slept = append(slept, d)
		return nil
	}
	if _, err := c.Ingest(context.Background(), "alpha", "id-1", []byte(csvBatch)); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	if len(slept) != 1 || slept[0] < 30*time.Second {
		t.Fatalf("slept %v, want one wait of at least the 30s HTTP-date hint", slept)
	}
}

// TestIngestRetryAfterEdgeCases pins the boundary forms: "0" and
// negative delays mean retry immediately (the policy delay still
// applies), a past HTTP-date clamps to zero, and garbage is ignored —
// none of them may inflate or break the retry schedule.
func TestIngestRetryAfterEdgeCases(t *testing.T) {
	for _, tc := range []struct {
		name  string
		value string
	}{
		{"zero seconds", "0"},
		{"negative seconds", "-5"},
		{"past date", "Fri, 31 Dec 1999 23:59:59 GMT"},
		{"garbage", "soon"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var attempts atomic.Int32
			var slept []time.Duration
			c := newStub(t, func(w http.ResponseWriter, r *http.Request) {
				if attempts.Add(1) == 1 {
					w.Header().Set("Retry-After", tc.value)
					http.Error(w, `{"error":"queue full"}`, http.StatusTooManyRequests)
					return
				}
				fmt.Fprint(w, `{"accepted":2,"quarantined":0}`)
			})
			c.sleep = func(ctx context.Context, d time.Duration) error {
				slept = append(slept, d)
				return nil
			}
			if _, err := c.Ingest(context.Background(), "alpha", "id-1", []byte(csvBatch)); err != nil {
				t.Fatalf("ingest: %v", err)
			}
			// The 1ms policy delay governs; the hint must neither push the
			// wait up nor drag it negative.
			if len(slept) != 1 || slept[0] != time.Millisecond {
				t.Fatalf("slept %v, want exactly the 1ms policy delay", slept)
			}
		})
	}
}

func TestParseRetryAfter(t *testing.T) {
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	for _, tc := range []struct {
		value string
		want  time.Duration
		ok    bool
	}{
		{"", 0, false},
		{"120", 2 * time.Minute, true},
		{"0", 0, true},
		{"-30", 0, true},
		{now.Add(90 * time.Second).Format(http.TimeFormat), 90 * time.Second, true},
		{now.Add(-time.Hour).Format(http.TimeFormat), 0, true},
		{"not-a-hint", 0, false},
		{"1.5", 0, false},
	} {
		got, ok := parseRetryAfter(tc.value, now)
		if got != tc.want || ok != tc.ok {
			t.Errorf("parseRetryAfter(%q) = (%v, %v), want (%v, %v)", tc.value, got, ok, tc.want, tc.ok)
		}
	}
}

func TestIngestStopsOnContextCancel(t *testing.T) {
	c := newStub(t, func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"queue full"}`, http.StatusTooManyRequests)
	})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Ingest(ctx, "alpha", "id-1", []byte(csvBatch)); err == nil {
		t.Fatal("ingest ignored a cancelled context")
	}
}

// End to end against the real daemon: delivery is exactly-once even when
// the client re-sends, and the query helpers decode real responses.
func TestClientAgainstRealServer(t *testing.T) {
	s, err := serve.New(serve.Config{DataDir: t.TempDir()})
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	c := New(ts.URL, Options{Retry: fastRetry})

	ctx := context.Background()
	res, err := c.Ingest(ctx, "alpha", "batch-1", []byte(csvBatch))
	if err != nil {
		t.Fatalf("ingest: %v", err)
	}
	if res.Accepted != 2 || res.Duplicate {
		t.Fatalf("first delivery: %+v", res)
	}
	res, err = c.Ingest(ctx, "alpha", "batch-1", []byte(csvBatch))
	if err != nil {
		t.Fatalf("re-send: %v", err)
	}
	if !res.Duplicate || res.Accepted != 2 {
		t.Fatalf("re-send folded again: %+v", res)
	}

	var summary struct {
		Records int `json:"records"`
	}
	if err := c.get(ctx, "/v1/tenants/alpha/summary", &summary); err != nil {
		t.Fatalf("summary: %v", err)
	}
	if summary.Records != 2 {
		t.Fatalf("records = %d, want 2 (exactly-once)", summary.Records)
	}
	if _, err := c.Result(ctx, "alpha"); err != nil {
		t.Fatalf("result: %v", err)
	}
	if _, err := c.Result(ctx, "nobody"); err == nil {
		t.Fatal("result of unknown tenant succeeded")
	}
}
