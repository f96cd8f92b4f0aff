// Package client is the Go client for the failure-analytics daemon
// (internal/serve). Its one job beyond plain HTTP is delivery: Ingest
// wraps each batch in a resilience.RetryPolicy — exponential backoff with
// jitter by default — retries transient refusals (429 queue-full, 503
// draining, 5xx, transport errors), honors the server's Retry-After
// hint, and stamps every attempt with the same Ingest-Id, so the
// server's dedupe window turns at-least-once retrying into exactly-once
// folding.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"hpcfail/internal/randx"
	"hpcfail/internal/resilience"
	"hpcfail/internal/serve"
)

// Client talks to one failserved instance. Construct with New.
type Client struct {
	base  string
	http  *http.Client
	retry resilience.RetryPolicy
	src   *randx.Source
	sleep func(context.Context, time.Duration) error
	now   func() time.Time
}

// Options configures a Client; the zero value of each field selects the
// documented default.
type Options struct {
	// HTTP is the underlying client; nil uses http.DefaultClient.
	HTTP *http.Client
	// Retry schedules re-sends of transiently refused batches; nil uses
	// exponential backoff (250ms base, doubling, 30s cap, 20% jitter,
	// 8 retries).
	Retry resilience.RetryPolicy
	// Seed drives the jitter; used only when Retry is nil.
	Seed int64
}

// New builds a client for the server at base (e.g. "http://host:8080").
func New(base string, opts Options) *Client {
	hc := opts.HTTP
	if hc == nil {
		hc = http.DefaultClient
	}
	retry := opts.Retry
	if retry == nil {
		retry = resilience.ExponentialBackoff{
			Base:       250 * time.Millisecond,
			Factor:     2,
			Max:        30 * time.Second,
			Jitter:     0.2,
			MaxRetries: 8,
		}
	}
	return &Client{
		base:  base,
		http:  hc,
		retry: retry,
		src:   randx.NewSource(opts.Seed),
		sleep: sleepCtx,
		now:   time.Now,
	}
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// StatusError is a non-retryable server refusal (4xx other than 429).
type StatusError struct {
	Status int
	Body   string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("client: server answered %d: %s", e.Status, e.Body)
}

// retryable reports whether a status is worth re-sending: backpressure,
// drain, or a server-side failure.
func retryable(status int) bool {
	return status == http.StatusTooManyRequests ||
		status == http.StatusServiceUnavailable ||
		status >= 500
}

// Ingest delivers one CSV batch to tenant, retrying per the policy until
// it is accepted, permanently refused, the retry budget runs out, or ctx
// ends. Every attempt carries ingestID (must be stable and unique per
// batch for exactly-once; empty disables dedupe). The wait before each
// re-send is the larger of the policy's delay and the server's
// Retry-After hint.
func (c *Client) Ingest(ctx context.Context, tenant, ingestID string, csvBody []byte) (*serve.IngestResult, error) {
	url := fmt.Sprintf("%s/v1/tenants/%s/ingest", c.base, tenant)
	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			delay, ok := c.retry.NextDelay(attempt, c.src)
			if !ok {
				return nil, fmt.Errorf("client: retries exhausted: %w", lastErr)
			}
			if ra := retryAfterHint(lastErr); ra > delay {
				delay = ra
			}
			if err := c.sleep(ctx, delay); err != nil {
				return nil, fmt.Errorf("client: %w (last attempt: %v)", err, lastErr)
			}
		}
		res, err := c.ingestOnce(ctx, url, ingestID, csvBody)
		if err == nil {
			return res, nil
		}
		if ctx.Err() != nil {
			return nil, fmt.Errorf("client: %w (last attempt: %v)", ctx.Err(), err)
		}
		var se *StatusError
		if isStatus(err, &se) && !retryable(se.Status) {
			return nil, err
		}
		lastErr = err
	}
}

func isStatus(err error, out **StatusError) bool {
	se, ok := err.(*statusErrWithHint)
	if !ok {
		return false
	}
	*out = &se.StatusError
	return true
}

// statusErrWithHint carries the Retry-After hint alongside the status.
type statusErrWithHint struct {
	StatusError
	retryAfter time.Duration
}

func retryAfterHint(err error) time.Duration {
	if se, ok := err.(*statusErrWithHint); ok {
		return se.retryAfter
	}
	return 0
}

// parseRetryAfter decodes a Retry-After header in both RFC 9110 forms:
// delay-seconds ("120", where "0" means retry immediately and negative
// values clamp to zero) and HTTP-date ("Fri, 31 Dec 1999 23:59:59 GMT",
// converted to a delay relative to now; dates in the past clamp to
// zero). ok is false when the header is absent or unparseable.
func parseRetryAfter(value string, now time.Time) (time.Duration, bool) {
	if value == "" {
		return 0, false
	}
	if secs, err := strconv.Atoi(value); err == nil {
		if secs < 0 {
			secs = 0
		}
		return time.Duration(secs) * time.Second, true
	}
	if at, err := http.ParseTime(value); err == nil {
		d := at.Sub(now)
		if d < 0 {
			d = 0
		}
		return d, true
	}
	return 0, false
}

func (c *Client) ingestOnce(ctx context.Context, url, ingestID string, body []byte) (*serve.IngestResult, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "text/csv")
	if ingestID != "" {
		req.Header.Set("Ingest-Id", ingestID)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return nil, fmt.Errorf("client: read response: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		se := &statusErrWithHint{
			StatusError: StatusError{Status: resp.StatusCode, Body: string(bytes.TrimSpace(data))},
		}
		if ra, ok := parseRetryAfter(resp.Header.Get("Retry-After"), c.now()); ok {
			se.retryAfter = ra
		}
		return nil, se
	}
	var res serve.IngestResult
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("client: decode response: %w", err)
	}
	return &res, nil
}

// get fetches a query endpoint into out.
func (c *Client) get(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return fmt.Errorf("client: %w", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return fmt.Errorf("client: read response: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return &StatusError{Status: resp.StatusCode, Body: string(bytes.TrimSpace(data))}
	}
	return json.Unmarshal(data, out)
}

// Result fetches a tenant's full analysis as raw JSON (the server's
// response shape is the contract; callers needing structure can decode
// into their own types).
func (c *Client) Result(ctx context.Context, tenant string) (json.RawMessage, error) {
	var raw json.RawMessage
	err := c.get(ctx, fmt.Sprintf("/v1/tenants/%s/result", tenant), &raw)
	return raw, err
}
