package testutil

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// Process harness for restart-chaos tests: build the repo's real daemon
// binaries, run them against scratch state directories, SIGKILL them
// mid-flight, and restart them on the same state — the only honest way to
// test crash recovery, since an in-process "crash" cannot lose what a real
// dead process loses.

var (
	binMu    sync.Mutex
	binDir   string
	binaries = map[string]string{}
)

// BuildBinary compiles ./cmd/<name> (with -race when the test binary itself
// is race-enabled, so daemon-side races fail chaos runs too) once per test
// process and returns the executable path. Subsequent calls reuse the build.
func BuildBinary(t testing.TB, name string) string {
	t.Helper()
	binMu.Lock()
	defer binMu.Unlock()
	if path, ok := binaries[name]; ok {
		return path
	}
	if binDir == "" {
		dir, err := os.MkdirTemp("", "privstats-bin-")
		if err != nil {
			t.Fatalf("testutil: bin dir: %v", err)
		}
		binDir = dir
	}
	out := filepath.Join(binDir, name)
	args := []string{"build"}
	if RaceEnabled {
		args = append(args, "-race")
	}
	args = append(args, "-o", out, "./cmd/"+name)
	cmd := exec.Command("go", args...)
	cmd.Dir = repoRoot(t)
	if msg, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("testutil: building %s: %v\n%s", name, err, msg)
	}
	binaries[name] = out
	return out
}

// repoRoot walks up from the test's working directory to the go.mod.
func repoRoot(t testing.TB) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("testutil: no go.mod above test directory")
		}
		dir = parent
	}
}

// Daemon is one running child process with its combined output captured.
type Daemon struct {
	t   testing.TB
	cmd *exec.Cmd

	mu  sync.Mutex
	out bytes.Buffer

	done    chan struct{} // closed once Wait returns
	waitErr error
}

// daemonWriter funnels the child's stdout+stderr into the locked buffer.
type daemonWriter struct{ d *Daemon }

func (w daemonWriter) Write(p []byte) (int, error) {
	w.d.mu.Lock()
	defer w.d.mu.Unlock()
	return w.d.out.Write(p)
}

// StartDaemon launches bin with args and begins capturing its output. The
// process is SIGKILLed at test cleanup if still running.
func StartDaemon(t testing.TB, bin string, args ...string) *Daemon {
	t.Helper()
	d := &Daemon{t: t, done: make(chan struct{})}
	d.cmd = exec.Command(bin, args...)
	d.cmd.Stdout = daemonWriter{d}
	d.cmd.Stderr = daemonWriter{d}
	if err := d.cmd.Start(); err != nil {
		t.Fatalf("testutil: starting %s: %v", bin, err)
	}
	go func() {
		d.waitErr = d.cmd.Wait()
		close(d.done)
	}()
	t.Cleanup(func() {
		if !d.Exited() {
			d.Kill()
		}
	})
	return d
}

// RequireStatsAddrInUseFails runs the real ./cmd/<name> binary with args plus
// a -stats-addr that another listener already owns. The daemon must exit
// non-zero naming the flag and the cause, and must not have logged
// listeningLog (the line it prints once its session listener is open): a bad
// stats address is a start-up error, not a log line from a daemon that then
// serves on blind.
func RequireStatsAddrInUseFails(t *testing.T, name, listeningLog string, args ...string) {
	t.Helper()
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("testutil: occupying a port: %v", err)
	}
	defer taken.Close()
	d := StartDaemon(t, BuildBinary(t, name), append(args, "-stats-addr", taken.Addr().String())...)
	if err := d.Wait(30 * time.Second); err == nil {
		t.Fatalf("%s exited 0 with an unbindable -stats-addr\n%s", name, d.Output())
	}
	out := d.Output()
	if !strings.Contains(out, name+": -stats-addr:") || !strings.Contains(out, "address already in use") {
		t.Errorf("start-up error does not name the flag and the cause:\n%s", out)
	}
	if strings.Contains(out, listeningLog) {
		t.Errorf("session listener opened before the stats address was bound:\n%s", out)
	}
}

// Output returns everything the process has written so far.
func (d *Daemon) Output() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.out.String()
}

// Exited reports whether the process has terminated.
func (d *Daemon) Exited() bool {
	select {
	case <-d.done:
		return true
	default:
		return false
	}
}

// WaitLog polls the captured output until pattern matches and returns the
// first capture group (or the whole match when the pattern has none). It
// fails the test on timeout or if the process exits without ever matching.
func (d *Daemon) WaitLog(pattern string, timeout time.Duration) string {
	d.t.Helper()
	re := regexp.MustCompile(pattern)
	deadline := time.Now().Add(timeout)
	for {
		if m := re.FindStringSubmatch(d.Output()); m != nil {
			if len(m) > 1 {
				return m[1]
			}
			return m[0]
		}
		if d.Exited() {
			// One last look: the line may have landed with the exit.
			if m := re.FindStringSubmatch(d.Output()); m != nil {
				if len(m) > 1 {
					return m[1]
				}
				return m[0]
			}
			d.t.Fatalf("testutil: process exited before log %q matched\n%s", pattern, d.Output())
		}
		if time.Now().After(deadline) {
			d.t.Fatalf("testutil: no log match for %q within %v\n%s", pattern, timeout, d.Output())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Signal delivers sig to the process.
func (d *Daemon) Signal(sig os.Signal) {
	d.t.Helper()
	if err := d.cmd.Process.Signal(sig); err != nil && !d.Exited() {
		d.t.Fatalf("testutil: signalling: %v", err)
	}
}

// Kill SIGKILLs the process — the simulated crash — and waits for the
// corpse, so state on disk is final before a restart.
func (d *Daemon) Kill() {
	d.t.Helper()
	_ = d.cmd.Process.Signal(syscall.SIGKILL)
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		d.t.Fatalf("testutil: process survived SIGKILL")
	}
}

// Wait blocks until the process exits on its own and returns its exit
// error, failing the test at the deadline.
func (d *Daemon) Wait(timeout time.Duration) error {
	d.t.Helper()
	select {
	case <-d.done:
		return d.waitErr
	case <-time.After(timeout):
		d.t.Fatalf("testutil: process still running after %v\n%s", timeout, d.Output())
		return fmt.Errorf("unreachable")
	}
}
