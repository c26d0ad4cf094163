package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/campaign"
)

// pollPeriod is how often the benchmark checks for completion of the
// distributed job: far below 1% of its wall time.
const pollPeriod = 200 * time.Microsecond

// remoteTimeout bounds a distributed job that stops making progress.
const remoteTimeout = 120 * time.Second

// remoteJob is the distributed campaign: an in-process coordinator
// (no local execution, no store) on a loopback listener, the spec
// submitted over POST /campaigns, and one worker holding at most one
// lease on one connection. The worker starts once the campaign is
// running, so its idle poll interval never enters the wall time.
func remoteJob(spec campaign.Spec, traced bool) (*jobRecord, error) {
	rec := newRecord()
	srv := campaign.NewServerOpts(campaign.Options{NoLocalExec: true, Jobs: 1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		hs.Close()
		<-served
		srv.Close()
	}()
	base := "http://" + ln.Addr().String()
	tt := &timingTransport{base: &http.Transport{MaxConnsPerHost: 1}}
	worker, err := campaign.NewWorker(campaign.WorkerOptions{
		Coordinator: base,
		Jobs:        1,
		Name:        "e2ebench",
		Client:      &http.Client{Transport: tt, Timeout: 30 * time.Second},
	})
	if err != nil {
		return nil, err
	}
	ctl := &http.Client{Transport: &http.Transport{}, Timeout: 30 * time.Second}
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	size := uint64(spec.ShardSize)
	nShards := (spec.TotalRuns() + size - 1) / size

	t := &jobTimer{rec: rec, traced: traced}
	if err := t.begin(); err != nil {
		return nil, err
	}
	deadline := time.Now().Add(remoteTimeout)
	ctx, cancel := context.WithCancel(context.Background())
	stopped := make(chan error, 1)
	started := false
	out, id, err := func() ([]byte, string, error) {
		p, err := submit(ctl, base, body)
		if err != nil {
			return nil, "", err
		}
		for p.Status != campaign.StatusRunning {
			if p.Status != campaign.StatusQueued || time.Now().After(deadline) {
				return nil, p.ID, fmt.Errorf("campaign %s is %s, not running", p.ID, p.Status)
			}
			time.Sleep(pollPeriod)
			if err := getJSON(ctl, base+"/campaigns/"+p.ID, &p); err != nil {
				return nil, p.ID, err
			}
		}
		started = true
		go func() { stopped <- worker.Run(ctx) }()
		for worker.ShardsDone.Load()+worker.Duplicates.Load() < nShards {
			if time.Now().After(deadline) {
				return nil, p.ID, fmt.Errorf("worker finished %d of %d shards in %v", worker.ShardsDone.Load(), nShards, remoteTimeout)
			}
			time.Sleep(pollPeriod)
		}
		out, err := fetchResult(ctl, base, p.ID, deadline)
		return out, p.ID, err
	}()
	rec.Runs = float64(spec.TotalRuns())
	if terr := t.end(); err == nil {
		err = terr
	}
	cancel()
	if started {
		if werr := <-stopped; werr != context.Canceled && err == nil {
			err = fmt.Errorf("worker: %v", werr)
		}
	}
	if err != nil {
		return nil, err
	}
	rec.Digest = digest(string(out))

	var p campaign.Progress
	if err := getJSON(ctl, base+"/campaigns/"+id, &p); err != nil {
		return nil, err
	}
	rec.Counts["campaign.simulated"] = float64(p.Simulated)
	rec.Counts["campaign.disk_hits"] = float64(p.DiskHits)
	processCounts(rec)
	rec.Layer["campaign.worker.shards_done"] = float64(worker.ShardsDone.Load())
	rec.Layer["campaign.worker.duplicates"] = float64(worker.Duplicates.Load())
	rec.Layer["campaign.worker.leases_lost"] = float64(worker.LeasesLost.Load())
	tt.report(rec)
	if traced {
		// The coordinator builds its job inside the submission; time
		// the same call on its own.
		start := time.Now()
		if _, err := campaign.New(spec, campaign.Options{NoLocalExec: true, Jobs: 1}); err != nil {
			return nil, err
		}
		rec.Layer["campaign.new_ms"] = ms(time.Since(start))
	}
	return rec, nil
}

func submit(c *http.Client, base string, spec []byte) (campaign.Progress, error) {
	var p campaign.Progress
	resp, err := c.Post(base+"/campaigns", "application/json", bytes.NewReader(spec))
	if err != nil {
		return p, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		return p, fmt.Errorf("submit: %s: %s", resp.Status, bytes.TrimSpace(b))
	}
	return p, json.NewDecoder(resp.Body).Decode(&p)
}

func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// fetchResult polls the result endpoint until the merged bytes are
// there; 409 means the coordinator has not merged the last shard yet.
func fetchResult(c *http.Client, base, id string, deadline time.Time) ([]byte, error) {
	for {
		resp, err := c.Get(base + "/campaigns/" + id + "/result")
		if err != nil {
			return nil, err
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch {
		case err != nil:
			return nil, err
		case resp.StatusCode == http.StatusOK:
			return b, nil
		case resp.StatusCode != http.StatusConflict || time.Now().After(deadline):
			return nil, fmt.Errorf("result: %s: %s", resp.Status, bytes.TrimSpace(b))
		}
		time.Sleep(pollPeriod)
	}
}

// timingTransport times the worker's lease and shard-post round trips,
// each from the request to the close of its response body, and counts
// every request the worker makes.
type timingTransport struct {
	base http.RoundTripper

	mu        sync.Mutex
	leaseMS   []float64
	postMS    []float64
	postBytes int64
	requests  int
	non2xx    int // transport errors and answers outside 2xx
}

func (t *timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	kind := ""
	if p := req.URL.Path; req.Method == http.MethodPost {
		switch {
		case strings.HasSuffix(p, "/lease"):
			kind = "lease"
		case strings.Contains(p, "/shards/") && !strings.HasSuffix(p, "/renew"):
			kind = "post"
		}
	}
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	t.mu.Lock()
	t.requests++
	if err != nil || resp.StatusCode/100 != 2 {
		t.non2xx++
	}
	if kind == "post" {
		t.postBytes += req.ContentLength
	}
	t.mu.Unlock()
	if err != nil || kind == "" {
		return resp, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() {
		d := ms(time.Since(start))
		t.mu.Lock()
		if kind == "lease" {
			t.leaseMS = append(t.leaseMS, d)
		} else {
			t.postMS = append(t.postMS, d)
		}
		t.mu.Unlock()
	}}
	return resp, nil
}

func (t *timingTransport) report(rec *jobRecord) {
	t.mu.Lock()
	defer t.mu.Unlock()
	rec.Layer["campaign.http.lease_ms.p50"] = percentile(t.leaseMS, 50)
	rec.Layer["campaign.http.lease_ms.p90"] = percentile(t.leaseMS, 90)
	rec.Layer["campaign.http.shard_post_ms.p50"] = percentile(t.postMS, 50)
	rec.Layer["campaign.http.shard_post_ms.p90"] = percentile(t.postMS, 90)
	if n := len(t.postMS); n > 0 {
		rec.Layer["campaign.http.shard_bytes"] = float64(t.postBytes) / float64(n)
	}
	rec.Layer["campaign.http.requests"] = float64(t.requests)
	rec.Layer["campaign.http.non2xx"] = float64(t.non2xx)
}

// timedBody reports when the caller has finished with a response.
type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Close() error {
	b.once.Do(b.done)
	return b.ReadCloser.Close()
}
