// Package client is the typed Go client for flayd's HTTP/JSON API
// (internal/wire). It is what the server's end-to-end tests and the
// flayload generator speak — every call is one request, strictly
// decoded, with non-2xx responses surfaced as *APIError. An APIError
// carries the server's machine-readable error code and unwraps to the
// matching goflay sentinel, so errors.Is(err, goflay.ErrBackpressure)
// and friends classify failures across the HTTP boundary without
// string matching.
package client

import (
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"net/url"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/controlplane"
	"repro/internal/flayerr"
	"repro/internal/obs"
	"repro/internal/wire"
)

// APIError is a non-2xx response.
type APIError struct {
	Status int
	Msg    string
	// Code is the server's machine-readable error classification
	// (wire.Code*), empty when the server did not classify.
	Code string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("flayd: HTTP %d: %s", e.Status, e.Msg)
}

// Unwrap maps the wire code back to the goflay sentinel it stands for,
// making errors.Is work through an APIError. Unclassified errors unwrap
// to nil.
func (e *APIError) Unwrap() error {
	return wire.SentinelOf(e.Code)
}

// IsStatus reports whether err is (or wraps) an APIError with the given
// status.
func IsStatus(err error, status int) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.Status == status
}

// Client talks to one flayd instance.
type Client struct {
	base string
	hc   *http.Client
	// conns, when non-nil, counts connection establishment vs reuse for
	// every request (NewPooled turns it on).
	conns *ConnStats
}

// New returns a client for the daemon at base (e.g.
// "http://127.0.0.1:9444"). The underlying http.Client has no timeout;
// wrap with WithHTTPClient for one.
func New(base string) *Client {
	return &Client{base: base, hc: &http.Client{}}
}

// NewPooled returns a client whose transport keeps up to maxConns idle
// connections to the daemon (default http.Transport keeps only 2 per
// host, which makes a many-worker load generator churn through fresh
// TCP connections). Connection establishment vs reuse is counted per
// request; read it with Conns.
func NewPooled(base string, maxConns int) *Client {
	if maxConns <= 0 {
		maxConns = 16
	}
	tr := &http.Transport{
		MaxIdleConns:        maxConns,
		MaxIdleConnsPerHost: maxConns,
		IdleConnTimeout:     90 * time.Second,
	}
	return &Client{base: base, hc: &http.Client{Transport: tr}, conns: &ConnStats{}}
}

// ConnStats counts how requests got their TCP connection.
type ConnStats struct {
	dialed atomic.Int64
	reused atomic.Int64
}

// Dialed is the number of requests that needed a fresh connection.
func (s *ConnStats) Dialed() int64 { return s.dialed.Load() }

// Reused is the number of requests served on a kept-alive connection.
func (s *ConnStats) Reused() int64 { return s.reused.Load() }

// Conns returns the client's connection counters (nil unless the client
// was built with NewPooled).
func (c *Client) Conns() *ConnStats { return c.conns }

// WithHTTPClient swaps the transport (timeouts, test servers).
func (c *Client) WithHTTPClient(hc *http.Client) *Client {
	c.hc = hc
	return c
}

// do runs one request; when out is non-nil the response body is
// strictly decoded into it.
func (c *Client) do(method, path string, in, out any) error {
	var body []byte
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("client: encoding request: %w", err)
		}
		body = data
	}
	return c.send(method, path, body, func(r io.Reader) error {
		if out == nil {
			return nil
		}
		return wire.Decode(r, 0, out)
	})
}

// send runs one request with a JSON body (none when body is nil) and
// hands a 2xx response body to decode.
func (c *Client) send(method, path string, body []byte, decode func(io.Reader) error) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return fmt.Errorf("client: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.conns != nil {
		trace := &httptrace.ClientTrace{GotConn: func(info httptrace.GotConnInfo) {
			if info.Reused {
				c.conns.reused.Add(1)
			} else {
				c.conns.dialed.Add(1)
			}
		}}
		req = req.WithContext(httptrace.WithClientTrace(req.Context(), trace))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("client: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		var we wire.ErrorResponse
		msg := resp.Status
		if err := wire.Decode(resp.Body, 1<<20, &we); err == nil && we.Error != "" {
			msg = we.Error
		}
		return &APIError{Status: resp.StatusCode, Msg: msg, Code: we.Code}
	}
	return decode(resp.Body)
}

// CreateSession loads a new session from a catalog name, P4 source, or
// snapshot (see wire.CreateSessionRequest).
func (c *Client) CreateSession(req wire.CreateSessionRequest) (wire.SessionInfo, error) {
	var info wire.SessionInfo
	err := c.do(http.MethodPost, "/v1/sessions", &req, &info)
	return info, err
}

// Sessions lists the live sessions.
func (c *Client) Sessions() ([]wire.SessionInfo, error) {
	var list wire.SessionList
	err := c.do(http.MethodGet, "/v1/sessions", nil, &list)
	return list.Sessions, err
}

// Session fetches one session's info.
func (c *Client) Session(name string) (wire.SessionInfo, error) {
	var info wire.SessionInfo
	err := c.do(http.MethodGet, "/v1/sessions/"+name, nil, &info)
	return info, err
}

// DeleteSession closes a session and deletes its snapshot.
func (c *Client) DeleteSession(name string) error {
	return c.do(http.MethodDelete, "/v1/sessions/"+name, nil, nil)
}

// Write applies updates with the given mode (wire.ModeSingle,
// wire.ModeBatch, or "" for the mode-by-count default), returning one
// decision per update.
func (c *Client) Write(name, mode string, updates []*controlplane.Update) (wire.WriteResponse, error) {
	return c.WriteDeadline(name, mode, updates, 0)
}

// WriteDeadline is Write with a per-request latency budget: deadline
// (rounded up to a whole millisecond, 0 = none) travels as the wire
// deadline_ms field, and the server's engine may degrade table
// precision to honor it — affected decisions come back with
// Precision == "degraded".
func (c *Client) WriteDeadline(name, mode string, updates []*controlplane.Update, deadline time.Duration) (wire.WriteResponse, error) {
	req := wire.WriteRequest{Mode: mode, Updates: wire.FromUpdates(updates)}
	if deadline > 0 {
		req.DeadlineMS = int64((deadline + time.Millisecond - 1) / time.Millisecond)
	}
	var resp wire.WriteResponse
	err := c.do(http.MethodPost, "/v1/sessions/"+name+"/updates", &req, &resp)
	return resp, err
}

// WriteRetry is Write plus bounded retries, backing off linearly
// (attempt * step). Retried failures are the transient ones: 429
// backpressure, 502/503 (a front door mid-failover, a standby not yet
// promoted), and transport errors (connection killed under the
// request). Every attempt carries the same generated req_id, so a write
// whose response was lost is answered from the server's idempotency
// cache on retry instead of applying twice — exactly-once across a
// shard failover. Other errors return immediately; after the last
// attempt the final *APIError is returned with its sentinel mapping
// intact (e.g. errors.Is(err, goflay.ErrBackpressure) for a 429).
func (c *Client) WriteRetry(name, mode string, updates []*controlplane.Update, attempts int, step time.Duration) (wire.WriteResponse, int, error) {
	return c.WriteRetryDeadline(name, mode, updates, 0, attempts, step)
}

// WriteRetryDeadline is WriteRetry with a per-request latency budget
// (see WriteDeadline).
func (c *Client) WriteRetryDeadline(name, mode string, updates []*controlplane.Update, deadline time.Duration, attempts int, step time.Duration) (wire.WriteResponse, int, error) {
	req := wire.WriteRequest{Mode: mode, Updates: wire.FromUpdates(updates), ReqID: NewReqID()}
	if deadline > 0 {
		req.DeadlineMS = int64((deadline + time.Millisecond - 1) / time.Millisecond)
	}
	retries := 0
	for {
		var resp wire.WriteResponse
		err := c.do(http.MethodPost, "/v1/sessions/"+name+"/updates", &req, &resp)
		if err == nil || !retryable(err) || retries >= attempts {
			return resp, retries, err
		}
		retries++
		time.Sleep(time.Duration(retries) * step)
	}
}

// retryable classifies an error as transient: worth re-sending the same
// req_id at.
func retryable(err error) bool {
	var ae *APIError
	if !errors.As(err, &ae) {
		// No HTTP status at all: the transport failed (connection
		// refused or killed mid-request — the failover window).
		return true
	}
	switch ae.Status {
	case http.StatusTooManyRequests, http.StatusBadGateway, http.StatusServiceUnavailable:
		return true
	}
	return false
}

// reqSeq disambiguates req_ids minted by this process.
var reqSeq atomic.Uint64

// NewReqID mints a unique idempotency key: random process prefix plus a
// process-local sequence number.
func NewReqID() string {
	var b [6]byte
	rand.Read(b[:])
	return hex.EncodeToString(b[:]) + "-" + fmt.Sprint(reqSeq.Add(1))
}

// Promote flips a standby daemon live (POST /v1/replica/promote),
// returning the sessions now serving. Idempotent.
func (c *Client) Promote() (wire.ReplicaPromoteResponse, error) {
	var resp wire.ReplicaPromoteResponse
	err := c.do(http.MethodPost, "/v1/replica/promote", nil, &resp)
	return resp, err
}

// Exec runs a burst of packets through a session's current specialized
// program (the session must be created with Exec: true). A session
// opened without exec yields an error satisfying
// errors.Is(err, goflay.ErrExecDisabled); a malformed packet satisfies
// errors.Is(err, goflay.ErrBadPacket).
func (c *Client) Exec(name string, packets []wire.Packet) (wire.ExecResponse, error) {
	body, err := json.Marshal(&wire.ExecRequest{Packets: packets})
	if err != nil {
		return wire.ExecResponse{}, fmt.Errorf("client: encoding request: %w", err)
	}
	return c.exec(name, body)
}

// ExecBytes is Exec over raw packet buffers with per-packet ingress
// ports (short ports default to 0), encoded straight from the frames.
func (c *Client) ExecBytes(name string, packets [][]byte, ports []uint16) (wire.ExecResponse, error) {
	return c.exec(name, wire.AppendExecRequest(nil, packets, ports))
}

func (c *Client) exec(name string, body []byte) (wire.ExecResponse, error) {
	var resp wire.ExecResponse
	err := c.send(http.MethodPost, "/v1/sessions/"+name+"/exec", body, func(r io.Reader) (err error) {
		resp, err = wire.DecodeExecResponse(r)
		return err
	})
	return resp, err
}

// Stats fetches the session's engine statistics.
func (c *Client) Stats(name string) (wire.Stats, error) {
	var st wire.Stats
	err := c.do(http.MethodGet, "/v1/sessions/"+name+"/stats", nil, &st)
	return st, err
}

// Explain fetches decision-diagram explanations of a session's program
// points: every point the table influences, or — when point >= 0 — just
// that point (membership-checked against the table when both are
// given). Pass table == "" with point >= 0 to explain one point by ID.
func (c *Client) Explain(name, table string, point int) (wire.ExplainResponse, error) {
	q := url.Values{}
	if table != "" {
		q.Set("table", table)
	}
	if point >= 0 {
		q.Set("point", strconv.Itoa(point))
	}
	path := "/v1/sessions/" + name + "/explain"
	if enc := q.Encode(); enc != "" {
		path += "?" + enc
	}
	var resp wire.ExplainResponse
	err := c.do(http.MethodGet, path, nil, &resp)
	return resp, err
}

// Audit fetches audit records with Seq > since (since 0 = everything
// retained).
func (c *Client) Audit(name string, since int) (wire.AuditResponse, error) {
	var resp wire.AuditResponse
	path := fmt.Sprintf("/v1/sessions/%s/audit?since=%d", name, since)
	err := c.do(http.MethodGet, path, nil, &resp)
	return resp, err
}

// Snapshot checkpoints the session and returns the warm state.
func (c *Client) Snapshot(name string) (wire.SnapshotResponse, error) {
	var resp wire.SnapshotResponse
	err := c.do(http.MethodPost, "/v1/sessions/"+name+"/snapshot", nil, &resp)
	return resp, err
}

// Source fetches the session's specialized ("specialized" or "") or
// original ("original") P4 source.
func (c *Client) Source(name, which string) (string, error) {
	path := "/v1/sessions/" + name + "/source"
	if which != "" {
		path += "?which=" + which
	}
	req, err := http.NewRequest(http.MethodGet, c.base+path, nil)
	if err != nil {
		return "", fmt.Errorf("client: %w", err)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", fmt.Errorf("client: %w", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, wire.DefaultMaxBody))
	if err != nil {
		return "", fmt.Errorf("client: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return "", &APIError{Status: resp.StatusCode, Msg: string(data)}
	}
	return string(data), nil
}

// Metrics fetches the JSON metrics snapshot.
func (c *Client) Metrics() (obs.Snapshot, error) {
	var snap obs.Snapshot
	err := c.do(http.MethodGet, "/v1/metrics", nil, &snap)
	return snap, err
}

// MetricsText fetches the Prometheus text exposition.
func (c *Client) MetricsText() (string, error) {
	req, err := http.NewRequest(http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return "", fmt.Errorf("client: %w", err)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", fmt.Errorf("client: %w", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, wire.DefaultMaxBody))
	if err != nil {
		return "", fmt.Errorf("client: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return "", &APIError{Status: resp.StatusCode, Msg: string(data)}
	}
	return string(data), nil
}

// Health fetches /healthz.
func (c *Client) Health() (wire.HealthResponse, error) {
	var h wire.HealthResponse
	err := c.do(http.MethodGet, "/healthz", nil, &h)
	return h, err
}

// WaitReady polls /healthz until the daemon answers or the deadline
// passes — the load generator's startup handshake. A daemon that never
// becomes ready yields an error satisfying
// errors.Is(err, goflay.ErrDeadlineExceeded) (the last health-check
// failure stays in the message).
func (c *Client) WaitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if _, err := c.Health(); err == nil {
			return nil
		} else if time.Now().After(deadline) {
			return fmt.Errorf("client: daemon not ready after %v (%v): %w",
				timeout, err, flayerr.ErrDeadlineExceeded)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
