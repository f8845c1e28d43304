package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"psigene/internal/gateway"
)

// buildDaemon compiles cmd/psigened from the checkout into dir; the build
// is never timed. The Go cache location is whatever the environment says
// (bench/run.sh points it inside the checkout).
func buildDaemon(root, dir string) (string, error) {
	bin := filepath.Join(dir, "psigened")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/psigened")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build psigened: %w\n%s", err, out)
	}
	return bin, nil
}

// daemon is one running psigened child.
type daemon struct {
	cmd         *exec.Cmd
	data, admin string // listener addresses parsed from the daemon's stdout
	artifact    string
	started     time.Time

	mu  sync.Mutex
	log bytes.Buffer // everything the child printed, for failure reports
	// done is closed once the stdout reader has seen EOF.
	done chan struct{}
}

var (
	dataAddrRE  = regexp.MustCompile(`proxying to \S+ on (\S+)$`)
	adminAddrRE = regexp.MustCompile(`admin surface on (\S+) `)
)

// startDaemon execs psigened with the benchmark's fixed flag set and waits
// until it has printed both listener addresses. The flags are identical
// for every workload: admission is on the path (-qps set) with limits no
// caller reaches, callers are keyed by the header the driver sends.
func startDaemon(bin, artifact, upstream string) (*daemon, error) {
	d := &daemon{artifact: artifact, done: make(chan struct{})}
	d.cmd = exec.Command(bin,
		"-model", artifact,
		"-upstream", upstream,
		"-listen", "127.0.0.1:0",
		"-admin-listen", "127.0.0.1:0",
		"-client-key-header", clientKeyHdr,
		"-qps", "1000000",
		"-max-callers", strconv.Itoa(maxCallers),
	)
	d.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(runtime.NumCPU()))
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	d.cmd.Stderr = d.cmd.Stdout
	d.started = time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start psigened: %w", err)
	}
	addrs := make(chan [2]string, 1)
	go func() {
		defer close(d.done)
		var data, admin string
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.log.WriteString(line + "\n")
			d.mu.Unlock()
			if m := dataAddrRE.FindStringSubmatch(line); m != nil {
				data = m[1]
			}
			if m := adminAddrRE.FindStringSubmatch(line); m != nil {
				admin = m[1]
			}
			if data != "" && admin != "" && addrs != nil {
				addrs <- [2]string{data, admin}
				addrs = nil
			}
		}
	}()
	select {
	case a := <-addrs:
		d.data, d.admin = a[0], a[1]
		return d, nil
	case <-d.done:
		_ = d.cmd.Wait()
		return nil, fmt.Errorf("psigened exited before listening:\n%s", d.output())
	case <-time.After(60 * time.Second):
		_ = d.stop()
		return nil, fmt.Errorf("psigened did not listen within 60s:\n%s", d.output())
	}
}

func (d *daemon) output() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.log.String()
}

// stop drains the daemon with SIGTERM and waits for it to exit, killing
// it if the drain hangs.
func (d *daemon) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
	err := d.cmd.Wait()
	// A daemon signalled within its first milliseconds (the set-up cycles
	// stop it right after its first answer) may not have installed its
	// handler yet and dies of the SIGTERM itself; that is a clean stop too.
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		if ws, ok := exit.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
			return nil
		}
	}
	if err != nil {
		return fmt.Errorf("psigened exit: %w\n%s", err, d.output())
	}
	return nil
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// fields; it has been 100 on every Linux architecture Go supports.
const clockTick = 100

// procCPU returns the user+system CPU time a process has consumed.
func procCPU(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields resume after
	// the closing parenthesis, starting with field 3 (state).
	i := bytes.LastIndexByte(raw, ')')
	f := strings.Fields(string(raw[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("bench: cannot parse /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bench: cannot parse /proc/%d/stat CPU fields", pid)
	}
	return time.Duration(utime+stime) * time.Second / clockTick, nil
}

// procPeakRSSMB returns a process's peak resident set (VmHWM) in MB.
func procPeakRSSMB(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("bench: cannot parse %q", line)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("bench: /proc/%d/status has no VmHWM", pid)
}

func (d *daemon) cpu() (time.Duration, error) { return procCPU(d.cmd.Process.Pid) }
func (d *daemon) peakRSSMB() (float64, error) { return procPeakRSSMB(d.cmd.Process.Pid) }

// statz fetches the daemon's /-/statz document.
func (d *daemon) statz() (gateway.Snapshot, error) {
	var snap gateway.Snapshot
	resp, err := http.Get("http://" + d.admin + "/-/statz")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("bench: /-/statz answered %d", resp.StatusCode)
	}
	err = json.NewDecoder(resp.Body).Decode(&snap)
	return snap, err
}

// reload re-pushes the serving artifact through POST /-/reload and
// returns how long the daemon took to validate, probe and swap it.
func (d *daemon) reload() (time.Duration, error) {
	start := time.Now()
	resp, err := http.Post("http://"+d.admin+"/-/reload?path="+filepath.Base(d.artifact), "text/plain", nil)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("bench: /-/reload answered %d: %s", resp.StatusCode, body)
	}
	return time.Since(start), nil
}
