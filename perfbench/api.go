package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"
)

// ledger counts the operations a run attempted and the ones that failed:
// frames sent, scored probes expected, API calls and verdict checks. It
// keeps the first few failure messages for the report.
type ledger struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	notes     []string
}

// op records one operation; a non-nil err is a failure.
func (l *ledger) op(err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.attempted++
	if err != nil {
		l.failed++
		l.note(err)
	}
}

// failN records n attempted operations of which failed did not succeed.
func (l *ledger) failN(n, failed int64, what string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.attempted += n
	if failed > 0 {
		l.failed += failed
		l.note(fmt.Errorf("%s: %d of %d failed", what, failed, n))
	}
}

func (l *ledger) note(err error) {
	if len(l.notes) < 8 {
		l.notes = append(l.notes, err.Error())
	}
}

func (l *ledger) counts() (attempted, failed int64, notes []string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.attempted, l.failed, append([]string(nil), l.notes...)
}

// api is a client of one control plane's ops listener.
type api struct {
	base  string
	token string
	hc    *http.Client
	led   *ledger
}

func newAPI(base, token string, led *ledger) *api {
	return &api{
		base:  strings.TrimRight(base, "/"),
		token: token,
		hc: &http.Client{
			Timeout:   30 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: 4},
		},
		led: led,
	}
}

// get fetches path into doc (nil = discard the body) and returns the
// round-trip time. Every call is one ledger operation.
func (a *api) get(path string, doc any) (time.Duration, error) {
	return a.do(http.MethodGet, path, doc)
}

// post issues an authorized mutation.
func (a *api) post(path string, doc any) (time.Duration, error) {
	return a.do(http.MethodPost, path, doc)
}

func (a *api) do(method, path string, doc any) (time.Duration, error) {
	rtt, err := a.try(method, path, doc)
	a.led.op(err)
	return rtt, err
}

// try is do without ledger accounting, for readiness polls whose early
// refusals are expected.
func (a *api) try(method, path string, doc any) (time.Duration, error) {
	req, err := http.NewRequest(method, a.base+path, nil)
	if err != nil {
		return 0, err
	}
	if method != http.MethodGet {
		req.Header.Set("Authorization", "Bearer "+a.token)
	}
	start := time.Now()
	resp, err := a.hc.Do(req)
	if err != nil {
		return 0, fmt.Errorf("%s %s: %w", method, path, err)
	}
	defer func() { _ = resp.Body.Close() }()
	body, err := io.ReadAll(resp.Body)
	rtt := time.Since(start)
	if err != nil {
		return rtt, fmt.Errorf("%s %s: read body: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		return rtt, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(body))
	}
	if doc != nil {
		if err := json.Unmarshal(body, doc); err != nil {
			return rtt, fmt.Errorf("%s %s: decode: %w", method, path, err)
		}
	}
	return rtt, nil
}

// text fetches a plain-text endpoint such as /metrics.
func (a *api) text(path string) (string, time.Duration, error) {
	start := time.Now()
	resp, err := a.hc.Get(a.base + path)
	if err != nil {
		a.led.op(err)
		return "", 0, err
	}
	defer func() { _ = resp.Body.Close() }()
	body, err := io.ReadAll(resp.Body)
	rtt := time.Since(start)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	a.led.op(err)
	return string(body), rtt, err
}

// promSum sums every sample of a metric family line-by-line, e.g.
// "pcsmon_fleet_mailbox_depth" over its worker labels or
// "pcsmon_fleet_scoring_latency_seconds_sum".
func promSum(text, name string) (float64, bool) {
	total, found := 0.0, false
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, name) || strings.HasPrefix(line, "#") {
			continue
		}
		rest := line[len(name):]
		if rest == "" || (rest[0] != ' ' && rest[0] != '{') {
			continue // a longer metric name sharing the prefix
		}
		fields := strings.Fields(rest[strings.LastIndexByte(rest, '}')+1:])
		if len(fields) == 0 {
			continue
		}
		var v float64
		if _, err := fmt.Sscan(fields[0], &v); err != nil {
			continue
		}
		total += v
		found = true
	}
	return total, found
}
