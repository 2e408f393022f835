package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/jobs"
	"repro/internal/serve"
)

// server is one rcbtserved child process started with its shipped
// defaults plus a -data-dir, and the HTTP client the benchmark drives
// it with. The client's transport allows at most nproc connections, so
// the generator can never open more than that.
type server struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	waited chan error
}

// startServer launches bin on an ephemeral loopback port and returns
// once it has printed its bound address.
func startServer(ctx context.Context, bin, dataDir string, conns int) (*server, error) {
	cmd := exec.Command(bin, "-data-dir", dataDir, "-addr", "127.0.0.1:0")
	// The server logs one line per request; the log is part of its cost,
	// so it is written, but to a file nobody reads.
	logf, err := os.Create(dataDir + ".log")
	if err != nil {
		return nil, err
	}
	defer logf.Close() // vetsuite:allow uncheckederr -- the child holds its own descriptor
	cmd.Stderr = logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &server{cmd: cmd, waited: make(chan error, 1)}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		addr := ""
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "rcbtserved listening on "); ok && addr == "" {
				addr = a
				addrCh <- a
			}
		}
		if addr == "" {
			close(addrCh)
		}
		s.waited <- cmd.Wait()
	}()
	select {
	case addr, ok := <-addrCh:
		if !ok {
			return nil, fmt.Errorf("rcbtserved exited before listening: %w", <-s.waited)
		}
		s.base = "http://" + addr
	case <-time.After(30 * time.Second):
		s.kill()
		return nil, errors.New("rcbtserved did not report its address within 30s")
	case <-ctx.Done():
		s.kill()
		return nil, ctx.Err()
	}
	s.client = &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
	return s, nil
}

// stop sends SIGTERM and waits for the process to exit, killing it if
// the graceful shutdown takes longer than 15s.
func (s *server) stop() error {
	if s == nil {
		return nil
	}
	s.client.CloseIdleConnections()
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return s.kill()
	}
	select {
	case err := <-s.waited:
		return err
	case <-time.After(15 * time.Second):
		return s.kill()
	}
}

func (s *server) kill() error {
	_ = s.cmd.Process.Kill() // already exited is fine; Wait below reports
	return <-s.waited
}

// peakRSSMB reads the process's high-water resident set (VmHWM).
func (s *server) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// cpu is the CPU time the server's threads have run so far: the sum of
// the first field of /proc/<pid>/task/<tid>/schedstat (ns). The kernel
// leaves out of it the time the hypervisor ran other guests (steal) and
// the time the threads waited for a core, so unlike wall time it does
// not move with what else the host runs. The Go runtime does not end
// its threads, so the sum only grows.
func (s *server) cpu() (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", s.cmd.Process.Pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var sum time.Duration
	for _, t := range tasks {
		b, err := os.ReadFile(dir + "/" + t.Name() + "/schedstat")
		if err != nil {
			return 0, err
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			return 0, fmt.Errorf("%s/%s/schedstat is empty", dir, t.Name())
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, err
		}
		sum += time.Duration(ns)
	}
	return sum, nil
}

// statusError is a non-2xx reply.
type statusError struct {
	code int
	body string
}

func (e *statusError) Error() string { return fmt.Sprintf("status %d: %s", e.code, e.body) }

// do sends one request and decodes a 2xx JSON reply into out (when
// non-nil). Any other status is a *statusError.
func (s *server) do(ctx context.Context, method, path string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, s.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close() // vetsuite:allow uncheckederr -- read-only response body
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return &statusError{code: resp.StatusCode, body: strings.TrimSpace(string(data))}
	}
	if out == nil {
		return nil
	}
	if raw, ok := out.(*[]byte); ok {
		*raw = data
		return nil
	}
	return json.Unmarshal(data, out)
}

func (s *server) postJSON(ctx context.Context, path string, v, out any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return s.do(ctx, http.MethodPost, path, body, out)
}

// models lists the served models keyed by name.
func (s *server) models(ctx context.Context) (map[string]serve.ModelInfo, error) {
	var resp struct {
		Models []serve.ModelInfo `json:"models"`
	}
	if err := s.do(ctx, http.MethodGet, "/v1/models", nil, &resp); err != nil {
		return nil, err
	}
	out := make(map[string]serve.ModelInfo, len(resp.Models))
	for _, m := range resp.Models {
		out[m.Name] = m
	}
	return out, nil
}

// servedVersion is the dataset version of the named model's Meta, or
// -1 when the model is not served yet.
func servedVersion(ms map[string]serve.ModelInfo, name string) int {
	m, ok := ms[name]
	if !ok {
		return -1
	}
	if m.Meta == nil {
		return 0
	}
	return m.Meta.DatasetVersion
}

func (s *server) job(ctx context.Context, id string) (*jobs.Record, error) {
	var rec jobs.Record
	if err := s.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &rec); err != nil {
		return nil, err
	}
	return &rec, nil
}

func (s *server) jobList(ctx context.Context) ([]*jobs.Record, error) {
	var resp struct {
		Jobs []*jobs.Record `json:"jobs"`
	}
	if err := s.do(ctx, http.MethodGet, "/v1/jobs", nil, &resp); err != nil {
		return nil, err
	}
	return resp.Jobs, nil
}

// envelope fetches the named model's persisted envelope.
func (s *server) envelope(ctx context.Context, name string) ([]byte, error) {
	var raw []byte
	err := s.do(ctx, http.MethodGet, "/v1/models/"+name, nil, &raw)
	return raw, err
}

var cacheCounterIndex = map[string]int{
	"rcbtserved_predict_cache_hits_total":      0,
	"rcbtserved_predict_cache_misses_total":    1,
	"rcbtserved_predict_cache_evictions_total": 2,
}

// cacheCounters reads each served model's prediction cache counters
// (hits, misses, evictions) from /metrics.
func (s *server) cacheCounters(ctx context.Context) (map[string][3]float64, error) {
	var raw []byte
	if err := s.do(ctx, http.MethodGet, "/metrics", nil, &raw); err != nil {
		return nil, err
	}
	out := map[string][3]float64{}
	for _, line := range strings.Split(string(raw), "\n") {
		name, rest, ok := strings.Cut(line, "{model=")
		if !ok {
			continue
		}
		idx, known := cacheCounterIndex[name]
		if !known {
			continue
		}
		model, value, ok := strings.Cut(rest, "} ")
		if !ok {
			return nil, fmt.Errorf("metrics line %q", line)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(value), 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		c := out[model]
		c[idx] = v
		out[model] = c
	}
	return out, nil
}
