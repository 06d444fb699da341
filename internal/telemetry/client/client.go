// Package client is the Go client of the hetpapid HTTP API, used by
// hetpapiload and by the daemon's own tests. It speaks the wire types of
// internal/telemetry.
package client

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"hetpapi/internal/telemetry"
	"hetpapi/internal/telemetry/httpobs"
)

// Client talks to one hetpapid instance.
type Client struct {
	base string
	http *http.Client
}

// New returns a client for the daemon at baseURL (e.g.
// "http://127.0.0.1:8080").
func New(baseURL string) *Client {
	return &Client{
		base: strings.TrimRight(baseURL, "/"),
		http: &http.Client{Timeout: 10 * time.Second},
	}
}

func (c *Client) get(ctx context.Context, path string, query url.Values, out any) error {
	u := c.base + path
	if len(query) > 0 {
		u += "?" + query.Encode()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		var apiErr telemetry.APIError
		if json.Unmarshal(body, &apiErr) == nil && apiErr.Error != "" {
			return fmt.Errorf("%s: %s", path, apiErr.String())
		}
		return fmt.Errorf("%s: http %d: %s", path, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	if out == nil {
		return nil
	}
	if raw, ok := out.(*string); ok {
		*raw = string(body)
		return nil
	}
	if err := json.Unmarshal(body, out); err != nil {
		return fmt.Errorf("%s: decoding response: %w", path, err)
	}
	return nil
}

// Health fetches /health.
func (c *Client) Health(ctx context.Context) (telemetry.HealthInfo, error) {
	var out telemetry.HealthInfo
	err := c.get(ctx, "/health", nil, &out)
	return out, err
}

// Machines fetches /machines.
func (c *Client) Machines(ctx context.Context) ([]telemetry.MachineInfo, error) {
	var out []telemetry.MachineInfo
	err := c.get(ctx, "/machines", nil, &out)
	return out, err
}

// Series fetches /series for one machine.
func (c *Client) Series(ctx context.Context, machine string) ([]telemetry.SeriesInfo, error) {
	var out []telemetry.SeriesInfo
	err := c.get(ctx, "/series", url.Values{"machine": {machine}}, &out)
	return out, err
}

// Query runs a /query request.
func (c *Client) Query(ctx context.Context, q telemetry.QueryRequest) (*telemetry.QueryResponse, error) {
	var out telemetry.QueryResponse
	if err := c.get(ctx, "/query", q.Values(), &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Metrics fetches the raw /metrics text exposition.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	var out string
	err := c.get(ctx, "/metrics", nil, &out)
	return out, err
}

// Status fetches /status, the daemon's serving-path telemetry:
// per-endpoint latency/error accounting and SLO attainment.
func (c *Client) Status(ctx context.Context) (httpobs.Status, error) {
	var out httpobs.Status
	err := c.get(ctx, "/status", nil, &out)
	return out, err
}
