package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"unisched"
)

// adminToken and benchTokens are the bearer tokens of the quota file the
// daemon runs with; benchTokens[i] belongs to benchTenants[i].
const adminToken = "bench-admin-token"

var benchTokens = []string{"bench-token-a", "bench-token-b", "bench-token-c"}

// buildDaemon compiles cmd/unischedd into the checkout's build directory
// and returns the binary's path and how long the build took. The time is
// reported on its own and never counted as set-up.
func buildDaemon(cfg runConfig) (string, float64, error) {
	out := filepath.Join(cfg.Root, ".bench_build", "unischedd")
	t0 := time.Now()
	cmd := exec.Command("go", "build", "-o", out, "./cmd/unischedd")
	cmd.Dir = cfg.Root
	if msg, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("building unischedd: %v\n%s", err, msg)
	}
	return out, time.Since(t0).Seconds(), nil
}

// writeQuotaFile writes the daemon's -quota file for benchQuota.
func writeQuotaFile(path string, nodes int) error {
	type tenant struct {
		Name       string             `json:"name"`
		Token      string             `json:"token"`
		Guaranteed unisched.Resources `json:"guaranteed"`
		Max        unisched.Resources `json:"max"`
	}
	doc := struct {
		AdminToken string   `json:"admin_token"`
		Tenants    []tenant `json:"tenants"`
	}{AdminToken: adminToken}
	for i, t := range benchQuota(nodes).Tenants {
		doc.Tenants = append(doc.Tenants, tenant{Name: t.Name, Token: benchTokens[i], Guaranteed: t.Guaranteed, Max: t.Max})
	}
	raw, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// daemon is one running unischedd process.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	// bootSec is exec → the first 200 from /readyz: for a daemon started on
	// a data directory with a log in it, the recovery time a client sees.
	bootSec float64

	outMu  sync.Mutex
	out    bytes.Buffer
	exited chan struct{}
}

// daemonTickWall is the wall time of one virtual tick at -speedup 1200.
const (
	daemonSpeedup  = 1200
	daemonTickWall = tickSeconds * time.Second / daemonSpeedup
)

// startDaemon execs unischedd the way serve-http defines it and waits until
// /readyz answers 200. extra flags are appended and so override the fixed
// ones. Standard error, which carries one log line per request, is
// discarded.
func startDaemon(bin, dataDir, quotaPath string, nodes int, seed int64, extra ...string) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	args := append([]string{
		"-addr", addr, "-data-dir", dataDir, "-quota", quotaPath,
		"-workers", "2", "-nodes", fmt.Sprint(nodes), "-hours", "1", "-seed", fmt.Sprint(seed),
		"-speedup", fmt.Sprint(daemonSpeedup), "-checkpoint-every", "1000000",
		"-trace-sample", "0", "-lifecycle-buffer", "0",
	}, extra...)
	d := &daemon{cmd: exec.Command(bin, args...), addr: addr, exited: make(chan struct{})}
	d.cmd.Stdout = &lockedWriter{mu: &d.outMu, buf: &d.out}
	// A bench that is itself killed must not leave a daemon behind.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		d.cmd.Wait() //nolint:errcheck // a killed daemon's status is not news
		close(d.exited)
	}()
	deadline := t0.Add(60 * time.Second)
	for {
		select {
		case <-d.exited:
			return nil, fmt.Errorf("unischedd exited during boot; stdout: %s", d.stdout())
		default:
		}
		if c, err := dial(addr); err == nil {
			status, _, _, err := c.do("GET", "/readyz", "", nil)
			c.close()
			if err == nil && status == http.StatusOK {
				d.bootSec = time.Since(t0).Seconds()
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("unischedd was not ready within a minute")
		}
		time.Sleep(time.Millisecond)
	}
}

type lockedWriter struct {
	mu  *sync.Mutex
	buf *bytes.Buffer
}

func (w *lockedWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (d *daemon) stdout() string {
	d.outMu.Lock()
	defer d.outMu.Unlock()
	return d.out.String()
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// kill is SIGKILL: the crash whose recovery the workload measures. It
// returns once the process is gone.
func (d *daemon) kill() {
	d.cmd.Process.Kill() //nolint:errcheck // already gone is fine
	<-d.exited
}

// terminate is the graceful stop: SIGTERM, then wait for the daemon to
// drain, cut its final checkpoint and print final_state_hash.
func (d *daemon) terminate() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return err
	}
	select {
	case <-d.exited:
		return nil
	case <-time.After(60 * time.Second):
		d.kill()
		return fmt.Errorf("unischedd did not stop within a minute of SIGTERM")
	}
}

// stateHash finds a `<key>=<hash>` line in the daemon's standard output.
func (d *daemon) stateHash(key string) (string, error) {
	for _, line := range strings.Split(d.stdout(), "\n") {
		if v, ok := strings.CutPrefix(line, key+"="); ok {
			return strings.TrimSpace(v), nil
		}
	}
	return "", fmt.Errorf("unischedd printed no %s line", key)
}

var apiClient = &http.Client{Timeout: 30 * time.Second}

func getJSON(addr, path string, into any) error {
	req, err := http.NewRequest("GET", "http://"+addr+path, nil)
	if err != nil {
		return err
	}
	req.Header.Set("Authorization", "Bearer "+adminToken)
	resp, err := apiClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

func (d *daemon) snapshot() (unisched.EngineSnapshot, error) {
	var sn unisched.EngineSnapshot
	err := getJSON(d.addr, "/v1/metrics", &sn)
	return sn, err
}

func (d *daemon) nodes() ([]unisched.EngineNodeStatus, error) {
	var out []unisched.EngineNodeStatus
	err := getJSON(d.addr, "/v1/nodes", &out)
	return out, err
}
