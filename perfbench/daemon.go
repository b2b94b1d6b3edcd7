package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is a tcompd subprocess on a loopback ephemeral port.
type daemon struct {
	cmd  *exec.Cmd
	url  string
	log  *os.File
	done chan error // receives cmd.Wait's result once the process exits
	http *http.Client
}

// startDaemon launches tcompd with its own flags plus extra, and returns
// once /healthz answers 200. dir receives the port file and the log.
func startDaemon(bin, dir string, extra ...string) (*daemon, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	portFile := filepath.Join(dir, "port")
	if err := os.Remove(portFile); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(dir, "tcompd.log"))
	if err != nil {
		return nil, err
	}
	args := append([]string{"-addr", "127.0.0.1:0", "-portfile", portFile}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The daemon must not outlive the benchmark, even if the benchmark
	// is killed before it can stop it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	d := &daemon{
		cmd:  cmd,
		log:  logf,
		done: make(chan error, 1),
		http: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}},
	}
	go func() { d.done <- cmd.Wait() }()

	deadline := time.Now().Add(60 * time.Second)
	for {
		select {
		case err := <-d.done:
			d.done <- err
			d.stop()
			return nil, fmt.Errorf("tcompd exited during start-up (%v); see %s", err, logf.Name())
		default:
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("tcompd did not answer /healthz within 60s; see %s", logf.Name())
		}
		if d.url == "" {
			if b, err := os.ReadFile(portFile); err == nil && strings.Contains(string(b), ":") {
				d.url = "http://" + strings.TrimSpace(string(b))
			}
		}
		if d.url != "" && d.healthy() {
			return d, nil
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (d *daemon) healthy() bool {
	resp, err := d.http.Get(d.url + "/healthz")
	if err != nil {
		return false
	}
	_, _ = io.Copy(io.Discard, resp.Body) // draining lets the connection be reused
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// stop sends SIGTERM, waits for the drain, and kills the process if it
// has not exited after 30 seconds. It returns once the process is gone.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // already exited: Wait below returns at once
	select {
	case <-d.done:
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
	d.http.CloseIdleConnections()
	d.log.Close()
}

// promSample is one scrape of /metrics/prometheus: series (name plus
// label set, as printed) to value.
type promSample map[string]float64

func (d *daemon) scrape(ctx context.Context) (promSample, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.url+"/metrics/prometheus", nil)
	if err != nil {
		return nil, err
	}
	resp, err := d.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics/prometheus: %s", resp.Status)
	}
	return parseProm(resp.Body)
}

// parseProm reads the text exposition format: comment lines are
// skipped, every other line is "series value".
func parseProm(r io.Reader) (promSample, error) {
	out := promSample{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("bad exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("bad exposition line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sum adds every series of one metric name, whatever its labels.
func (p promSample) sum(name string) float64 {
	var total float64
	for series, v := range p {
		if series == name || strings.HasPrefix(series, name+"{") {
			total += v
		}
	}
	return total
}

// delta is after minus before for one metric name.
func delta(before, after promSample, name string) float64 {
	return after.sum(name) - before.sum(name)
}
