package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"hpcfail/internal/engine"
	"hpcfail/internal/failures"
	"hpcfail/internal/lanl"
	"hpcfail/internal/serve"
)

// serveStream is failserved's default sharding: the fleet plus one
// shard per (system, root cause).
var serveStream = engine.StreamOptions{Spec: engine.ShardSpec{IncludeFleet: true, ByCause: true}}

const (
	// batchRecords is the size of one ingest body; a /result follows
	// every queryEvery-th ingest.
	batchRecords = 100
	queryEvery   = 8

	tenantPath = "/v1/tenants/bench/"
	// spanHeader carries the client's span id to the traced handler, so
	// a request's client and server spans share one trace.
	spanHeader = "Perfbench-Span"
)

// serveRig is one pass's set-up: the trace as CSV batch bodies and a
// fresh server, with failserved's defaults except CIs off, behind a
// loopback listener.
type serveRig struct {
	recs     []failures.Record
	bodies   [][]byte
	sizes    []int
	dataDir  string
	srv      *serve.Server
	http     *httptest.Server
	gen, enc time.Duration
}

func newServeRig(cfg *config, pass int, tr *tracer) (*serveRig, error) {
	root := tr.begin("serve-mixed.setup", 0)
	defer tr.end(root)
	rig := &serveRig{dataDir: filepath.Join(cfg.dir, fmt.Sprintf("serve-%d", pass))}

	sp, t0 := tr.begin("lanl.Generate", root), time.Now()
	d, err := lanl.NewGenerator(lanl.Config{Seed: cfg.seed, RateScale: cfg.scale, Workers: workers}).Generate()
	rig.gen = time.Since(t0)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	rig.recs = d.Records()

	sp, t0 = tr.begin("failures.CSVWriter", root), time.Now()
	rig.bodies, rig.sizes, err = csvBatches(rig.recs, batchRecords)
	rig.enc = time.Since(t0)
	tr.end(sp)
	if err != nil {
		return nil, err
	}

	sp = tr.begin("serve.New", root)
	rig.srv, err = serve.New(serve.Config{
		DataDir:          rig.dataDir,
		Engine:           engine.Options{Workers: workers, BootstrapReps: -1, Seed: cfg.seed},
		Stream:           serveStream,
		SnapshotInterval: 30 * time.Second,
	})
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	h := rig.srv.Handler()
	if tr != nil {
		h = tracedHandler(h, tr)
	}
	if cfg.hooks.handler != nil {
		h = cfg.hooks.handler(h)
	}
	rig.http = httptest.NewServer(h)
	return rig, nil
}

// close stops the listener, drains the server and deletes its data.
func (r *serveRig) close() error {
	r.http.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return errors.Join(r.srv.Shutdown(ctx), os.RemoveAll(r.dataDir))
}

// tracedHandler records a span around every request the server
// handles, as a child of the client span named in spanHeader.
func tracedHandler(h http.Handler, tr *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.Atoi(r.Header.Get(spanHeader))
		sp := tr.begin("serve.Handler", parent)
		h.ServeHTTP(w, r)
		tr.end(sp)
	})
}

// client is the workload's one caller. It waits for each reply before
// it sends the next request (a closed loop), over one kept-alive
// connection.
type client struct {
	base string
	hc   *http.Client
}

type reply struct {
	status int
	body   []byte
	rtt    time.Duration
}

// do sends one request and reads the whole reply; a traced call records
// a span named after the endpoint.
func (c *client) do(tr *tracer, parent int, method, p string, body []byte, ingestID string) (reply, error) {
	var rd io.Reader = http.NoBody
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+p, rd)
	if err != nil {
		return reply{}, err
	}
	if ingestID != "" {
		req.Header.Set("Content-Type", "text/csv")
		req.Header.Set("Ingest-Id", ingestID)
	}
	sp := tr.begin("client."+p[strings.LastIndexByte(p, '/')+1:], parent)
	if sp != 0 {
		req.Header.Set(spanHeader, strconv.Itoa(sp))
	}
	var r reply
	t0 := time.Now()
	res, err := c.hc.Do(req)
	if err == nil {
		r.body, err = io.ReadAll(res.Body)
		res.Body.Close()
		r.status = res.StatusCode
	}
	r.rtt = time.Since(t0)
	tr.end(sp)
	return r, err
}

// serveRun is what one serve-mixed pass received.
type serveRun struct {
	acks, results []reply
	root          int
}

// schedule sends the trace's batches in order, with a /result after
// every queryEvery-th. The schedule is fixed, so every /result refits
// the same dirty shards on every pass. Replies are checked afterwards,
// outside the timed region.
func schedule(rig *serveRig, c *client, tr *tracer, pass int) (serveRun, error) {
	run := serveRun{root: tr.begin("serve-mixed.pass", 0)}
	defer tr.end(run.root)
	for b, body := range rig.bodies {
		r, err := c.do(tr, run.root, http.MethodPost, tenantPath+"ingest", body, fmt.Sprintf("p%d-b%d", pass, b))
		if err != nil {
			return run, err
		}
		run.acks = append(run.acks, r)
		if (b+1)%queryEvery != 0 {
			continue
		}
		r, err = c.do(tr, run.root, http.MethodGet, tenantPath+"result", nil, "")
		if err != nil {
			return run, err
		}
		run.results = append(run.results, r)
	}
	return run, nil
}

// checkRun applies serve-mixed's gates to one pass's replies and
// returns how many ingests were refused. The pass's digest covers every
// /result body in order, so it must match the first pass's.
func checkRun(out *outcome, cfg *config, rig *serveRig, run serveRun, pass int) (rejected int) {
	for b, r := range run.acks {
		if r.status < 200 || r.status > 299 {
			rejected++
		}
		out.op(checkAck(r.status, r.body, rig.sizes[b]))
	}
	h := sha256.New()
	for _, r := range run.results {
		d, err := checkResult(r.status, r.body)
		out.op(err)
		io.WriteString(h, d)
	}
	out.op(out.sameAsFirst(cfg.hooks.doctor(pass, hex.EncodeToString(h.Sum(nil)))))
	return rejected
}

// serveMixed times one closed-loop client driving a fresh server per
// pass: CSV ingests in trace order, with /result queries among them.
func serveMixed(cfg *config) (*outcome, error) {
	out := newOutcome()
	var all []pass
	var runs []serveRun
	var setups, gen, enc []float64
	var rig *serveRig
	var eng *engine.Engine
	rejected := 0
	var walBytes int64
	err := passes(cfg, func(i int, tr *tracer) error {
		runtime.GC()
		t0 := time.Now()
		r, err := newServeRig(cfg, i, tr)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		gen, enc = append(gen, secs(r.gen)), append(enc, secs(r.enc))
		rig = r

		c := &client{base: rig.http.URL, hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}}
		var run serveRun
		p, err := region(func() (int, error) {
			var err error
			run, err = schedule(rig, c, tr, i)
			return len(rig.recs), err
		})
		if err == nil {
			var s reply
			if s, err = c.do(nil, 0, http.MethodGet, tenantPath+"summary", nil, ""); err == nil {
				out.op(checkSummary(s.status, s.body, len(rig.recs)))
				walBytes, err = dirSize(filepath.Join(rig.dataDir, "wal"))
			}
		}
		c.hc.CloseIdleConnections()
		eng = rig.srv.Engine()
		if err := errors.Join(err, rig.close()); err != nil {
			return err
		}
		rejected += checkRun(out, cfg, rig, run, i)
		all, runs = append(all, p), append(runs, run)
		return nil
	})
	if err != nil {
		return nil, err
	}
	plain, traced := split(cfg, all)
	plainRuns, tracedRuns := split(cfg, runs)
	plainSetups, _ := split(cfg, setups)
	var ingest, result []time.Duration
	for _, r := range plainRuns {
		for _, a := range r.acks {
			ingest = append(ingest, a.rtt)
		}
		for _, q := range r.results {
			result = append(result, q.rtt)
		}
	}
	ps := summarize(plain)
	out.e2e = map[string]float64{
		"setup_s":       median(plainSetups),
		"wall_s":        ps.wall,
		"cpu_s":         ps.cpu,
		"ingest_p50_ms": quantile(msList(ingest), 0.50),
		"ingest_p90_ms": quantile(msList(ingest), 0.90),
		"result_p50_ms": quantile(msList(result), 0.50),
		"result_p90_ms": quantile(msList(result), 0.90),
	}
	if cfg.tr == nil {
		return out, nil
	}

	var ingestHandler, resultHandler, overhead []float64
	for _, r := range tracedRuns {
		for _, c := range cfg.tr.children(r.root) {
			hs := cfg.tr.children(c.ID)
			if len(hs) != 1 {
				continue
			}
			switch c.Name {
			case "client.ingest":
				ingestHandler = append(ingestHandler, ms(hs[0].dur()))
				overhead = append(overhead, ms(c.dur()-hs[0].dur()))
			case "client.result":
				resultHandler = append(resultHandler, ms(hs[0].dur()))
			}
		}
	}
	inter, repair := failureSamples(func(yield func(*failures.Record) bool) {
		for i := range rig.recs {
			if !yield(&rig.recs[i]) {
				return
			}
		}
	})
	addNs, err := addProbe(inter, repair)
	if err != nil {
		return nil, err
	}
	parseS, err := parseProbe(rig.bodies)
	if err != nil {
		return nil, err
	}
	out.layer = map[string]float64{
		"lanl.generate_s":            median(gen),
		"failures.csv_encode_s":      median(enc),
		"failures.parse_s":           parseS,
		"streamstats.add_ns":         addNs,
		"serve.ingest_handler_ms":    median(ingestHandler),
		"serve.result_handler_ms":    median(resultHandler),
		"serve.http_overhead_ms":     median(overhead),
		"serve.wal_bytes_per_record": float64(walBytes) / float64(len(rig.recs)),
		"serve.rejected":             float64(rejected),
		"serve.ingest_p99_ms":        quantile(msList(ingest), 0.99),
		"trace.overhead_s":           summarize(traced).wall - ps.wall,
	}
	commonLayers(out.layer, eng, ps)
	return out, nil
}

// csvBatches encodes records as CSV bodies of up to n records each.
func csvBatches(recs []failures.Record, n int) (bodies [][]byte, sizes []int, err error) {
	for lo := 0; lo < len(recs); lo += n {
		hi := min(lo+n, len(recs))
		var buf bytes.Buffer
		w, err := failures.NewCSVWriter(&buf)
		if err != nil {
			return nil, nil, err
		}
		for _, r := range recs[lo:hi] {
			if err := w.Write(r); err != nil {
				return nil, nil, err
			}
		}
		if err := w.Flush(); err != nil {
			return nil, nil, err
		}
		bodies, sizes = append(bodies, buf.Bytes()), append(sizes, hi-lo)
	}
	return bodies, sizes, nil
}

// parseProbe times failures.Scanner over the batch bodies, in the
// lenient mode the ingest handler uses, and returns the median over
// three repetitions of the total seconds.
func parseProbe(bodies [][]byte) (float64, error) {
	var ts []float64
	for rep := 0; rep < 3; rep++ {
		t0 := time.Now()
		for _, b := range bodies {
			sc, err := failures.NewScanner(bytes.NewReader(b), failures.ReadCSVOptions{SkipMalformed: true})
			if err != nil {
				return 0, err
			}
			for sc.Scan() {
			}
			if err := sc.Err(); err != nil {
				return 0, err
			}
		}
		ts = append(ts, time.Since(t0).Seconds())
	}
	return median(ts), nil
}

// dirSize sums the sizes of the files in dir.
func dirSize(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += info.Size()
	}
	return n, nil
}
