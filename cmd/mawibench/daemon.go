package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// buildDaemon compiles cmd/mawilabd from the module at root into dir.
func buildDaemon(ctx context.Context, root, dir string) (string, error) {
	bin := filepath.Join(dir, "mawilabd")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/mawilabd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/mawilabd: %w\n%s", err, out)
	}
	return bin, nil
}

// daemon is one running mawilabd child.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	stderr bytes.Buffer
}

// startDaemon boots bin on a free loopback port over the given store
// directory with the flags both serve workloads fix, reads the port from the
// "listening on" line and waits for /readyz. Cancelling ctx kills the child.
func startDaemon(ctx context.Context, bin, store string) (*daemon, error) {
	d := &daemon{}
	d.cmd = exec.CommandContext(ctx, bin, "-addr", "127.0.0.1:0", "-workers", "1", "-job-workers", "1", "-queue", "16", "-store", store)
	d.cmd.Stderr = &d.stderr
	stdout, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	line, err := bufio.NewReader(stdout).ReadString('\n')
	const prefix = "mawilabd: listening on "
	if err != nil || !strings.HasPrefix(line, prefix) {
		d.cmd.Process.Kill()
		d.cmd.Wait()
		return nil, fmt.Errorf("mawilabd did not announce its address (read %q, %v): %s", line, err, d.stderr.String())
	}
	d.base = "http://" + strings.TrimSpace(strings.TrimPrefix(line, prefix))
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		resp, err := http.Get(d.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.cmd.Process.Kill()
			d.cmd.Wait()
			return nil, fmt.Errorf("mawilabd never became ready: %s", d.stderr.String())
		}
	}
}

// stop sends SIGTERM, waits for the drain and returns the CPU seconds (user
// plus system) the child used over its life. Anything but a clean drain and
// exit 0 is an error: a daemon that cannot shut down cleanly fails the
// workload even when every op succeeded.
func (d *daemon) stop() (float64, error) {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return 0, err
	}
	kill := time.AfterFunc(60*time.Second, func() { d.cmd.Process.Kill() })
	err := d.cmd.Wait()
	kill.Stop()
	if err != nil {
		return 0, fmt.Errorf("mawilabd exit: %w: %s", err, d.stderr.String())
	}
	if strings.Contains(d.stderr.String(), "drain incomplete") {
		return 0, fmt.Errorf("mawilabd: %s", d.stderr.String())
	}
	ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0, fmt.Errorf("mawilabd: no rusage on this platform")
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), nil
}

// scrape reads the daemon's /metrics.
func (d *daemon) scrape(client *http.Client) (promSample, error) {
	resp, err := client.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return parseProm(resp.Body)
}

// scratchDirs creates the run's working directory (the daemon binary lives
// there) and the directory its label stores go under. With -scratch both are
// inside it. Without, stores go on a tmpfs when /dev/shm is writable, so that
// store.put_s measures the program's encode and write path and not a shared
// disk; the binary cannot follow them there, /dev/shm is usually noexec.
func scratchDirs(scratch string) (work, stores string, err error) {
	if scratch != "" {
		if err := os.MkdirAll(scratch, 0o755); err != nil {
			return "", "", err
		}
	}
	if work, err = os.MkdirTemp(scratch, "mawibench-"); err != nil {
		return "", "", err
	}
	if scratch == "" {
		if stores, err = os.MkdirTemp("/dev/shm", "mawibench-"); err == nil {
			return work, stores, nil
		}
	}
	return work, work, nil
}

// fsType names the filesystem dir lives on, from /proc/mounts ("unknown"
// where that cannot be read).
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	data, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, typ := "", "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mount := f[1]
		if (abs == mount || strings.HasPrefix(abs, strings.TrimSuffix(mount, "/")+"/")) && len(mount) > len(best) {
			best, typ = mount, f[2]
		}
	}
	return typ
}
