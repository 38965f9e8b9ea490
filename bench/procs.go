package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/deepeye/deepeye/internal/load"
)

// clockTicksPerSec is USER_HZ, the unit of utime/stime in /proc/<pid>/stat
// (100 on every Linux architecture Go supports).
const clockTicksPerSec = 100

// serverProc is one deepeye-server child process.
type serverProc struct {
	cmd  *exec.Cmd
	url  string
	done chan struct{} // closed once the process has exited and been reaped
}

// startServers launches the workload's server processes with data
// directories under dir and returns once every one answers /healthz.
func startServers(ctx context.Context, bin string, sc *load.Scenario, dir string) ([]*serverProc, error) {
	n := max(1, sc.Cluster.Nodes)
	addrs, err := freeAddrs(n)
	if err != nil {
		return nil, err
	}
	urls := make([]string, n)
	for i, a := range addrs {
		urls[i] = "http://" + a
	}
	var srvs []*serverProc
	for i, a := range addrs {
		nodeDir := filepath.Join(dir, fmt.Sprintf("node%d", i))
		if err := os.MkdirAll(nodeDir, 0o755); err != nil {
			stopServers(srvs)
			return nil, err
		}
		log, err := os.Create(nodeDir + ".log")
		if err != nil {
			stopServers(srvs)
			return nil, err
		}
		cmd := exec.Command(bin, serverArgs(sc, a, filepath.Join(nodeDir, "data"), urls, i)...)
		cmd.Stdout, cmd.Stderr = log, log
		// Should the benchmark itself be killed, its servers go with it.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := cmd.Start(); err != nil {
			log.Close()
			stopServers(srvs)
			return nil, fmt.Errorf("starting %s: %w", bin, err)
		}
		s := &serverProc{cmd: cmd, url: urls[i], done: make(chan struct{})}
		go func() {
			_ = cmd.Wait() // the exit status of a server stopped by signal carries nothing
			log.Close()
			close(s.done)
		}()
		srvs = append(srvs, s)
	}
	for _, s := range srvs {
		if err := s.waitHealthy(ctx); err != nil {
			stopServers(srvs)
			return nil, err
		}
	}
	return srvs, nil
}

// serverArgs renders the scenario's [server] section as deepeye-server
// flags, joining the servers into a cluster when there is more than one.
func serverArgs(sc *load.Scenario, addr, dataDir string, peers []string, self int) []string {
	c := sc.Server
	args := []string{
		"-addr", addr, "-data-dir", dataDir,
		"-registry-size", strconv.FormatInt(c.RegistrySize, 10),
		"-cache-size", strconv.FormatInt(c.CacheSize, 10),
		"-dataset-ttl", c.DatasetTTL.String(),
		"-wal-compact-bytes", strconv.FormatInt(c.WALCompactBytes, 10),
		"-max-inflight", strconv.Itoa(c.MaxInFlight),
		"-timeout", c.Timeout.String(),
		"-workers", strconv.Itoa(c.Workers),
	}
	if len(peers) > 1 {
		args = append(args, "-self", peers[self], "-peers", strings.Join(peers, ","))
	}
	return args
}

// freeAddrs reserves n loopback ports by binding them all at once, then
// releases them for the servers to bind.
func freeAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer ln.Close()
		addrs[i] = ln.Addr().String()
	}
	return addrs, nil
}

func (s *serverProc) waitHealthy(ctx context.Context) error {
	deadline := time.Now().Add(20 * time.Second)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.url+"/healthz", nil)
		if err != nil {
			return err
		}
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-s.done:
			return fmt.Errorf("server %s exited during start-up", s.url)
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server %s not healthy after 20s", s.url)
		}
	}
}

// stopServers sends SIGTERM to every server and waits for each to exit,
// killing any that outlive the grace period.
func stopServers(srvs []*serverProc) {
	for _, s := range srvs {
		_ = s.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited; reaped below
	}
	for _, s := range srvs {
		select {
		case <-s.done:
		case <-time.After(10 * time.Second):
			_ = s.cmd.Process.Kill() // as above
			<-s.done
		}
	}
}

// cpuTicks sums utime+stime over the servers, in clock ticks.
func cpuTicks(srvs []*serverProc) (int64, error) {
	var total int64
	for _, s := range srvs {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		// Fields after the parenthesized command name: state is field
		// 3, utime and stime are fields 14 and 15.
		f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
		if len(f) < 13 {
			return 0, fmt.Errorf("short /proc/%d/stat", s.cmd.Process.Pid)
		}
		for _, v := range f[11:13] {
			t, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return 0, err
			}
			total += t
		}
	}
	return total, nil
}

// peakRSSKiB sums the servers' VmHWM (peak resident set), in KiB.
func peakRSSKiB(srvs []*serverProc) (int64, error) {
	var total int64
	for _, s := range srvs {
		f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		sc := bufio.NewScanner(f)
		found := false
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				v, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
				if err != nil {
					f.Close()
					return 0, err
				}
				total += v
				found = true
				break
			}
		}
		f.Close()
		if !found {
			return 0, fmt.Errorf("no VmHWM in /proc/%d/status", s.cmd.Process.Pid)
		}
	}
	return total, nil
}
