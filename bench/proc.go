package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// buildDir holds everything the benchmark leaves behind in the checkout:
// the schedd binary, and per invocation the children's stderr, the
// journals and trace.json. It is listed in .gitignore.
const buildDir = ".bench_build"

// pinToOneCPU confines this process, and so every child it starts, to
// the first CPU it may run on, and the runtime to one running goroutine.
// Two busy threads on the reference box run at a speed that flips
// between two levels a factor of two apart for seconds at a time, one
// busy thread within a few percent; on one CPU the generator, the
// children and the simulators take turns, so the benchmark prices the
// program's CPU cost and not the host's placement of two vCPUs. Threads
// the runtime starts later inherit the mask of the thread that starts
// them.
func pinToOneCPU() error {
	var mask [128]uint64 // 8192 CPUs
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); e != 0 {
		return e
	}
	var one [128]uint64
	for i, w := range mask {
		if w != 0 {
			one[i] = w & -w
			break
		}
	}
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return err
	}
	for _, t := range tasks {
		tid, _ := strconv.Atoi(t.Name())
		if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(one), uintptr(unsafe.Pointer(&one))); e != 0 && e != syscall.ESRCH {
			return e
		}
	}
	runtime.GOMAXPROCS(1)
	return nil
}

// buildSchedd compiles cmd/schedd into buildDir and returns the binary's
// absolute path. The go tool makes this a no-op when nothing changed.
func buildSchedd() (string, error) {
	bin, err := filepath.Abs(filepath.Join(buildDir, "schedd"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/schedd")
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("go build ./cmd/schedd: %v\n%s", err, out.Bytes())
	}
	return bin, nil
}

// straySchedd reports a live process that runs this checkout's schedd
// binary: a child that an earlier invocation failed to stop. Measuring
// next to it would be measuring a loaded box.
func straySchedd(bin string) (int, bool) {
	ents, _ := os.ReadDir("/proc")
	for _, e := range ents {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		exe, err := os.Readlink("/proc/" + e.Name() + "/exe")
		if err == nil && strings.TrimSuffix(exe, " (deleted)") == bin {
			return pid, true
		}
	}
	return 0, false
}

// child is one schedd process.
type child struct {
	name string
	addr string // host:port it listens on
	cmd  *exec.Cmd
	log  *os.File
	once sync.Once // kill, from the workload or from a signal
}

func (c *child) url() string { return "http://" + c.addr }
func (c *child) pid() int    { return c.cmd.Process.Pid }

// fleet owns every child of one invocation and the temp directory their
// journals live in, and takes all of it down again.
type fleet struct {
	bin, out, tmp string
	mu            sync.Mutex
	children      []*child
	closed        bool
}

func newFleet(bin, out string) (*fleet, error) {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(out, "tmp-")
	if err != nil {
		return nil, err
	}
	return &fleet{bin: bin, out: out, tmp: tmp}, nil
}

// freeAddr picks a loopback port nobody listens on right now.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// spawn starts schedd on addr (a fresh port when empty) in its own
// process group, stderr captured to <out>/<name>.log. The janitor is off
// (-gc 0 -ttl 0) so nothing fires mid-measurement. Where the kernel
// honours Pdeathsig the child dies with the benchmark even when the
// benchmark is killed outright; straySchedd covers where it does not.
func (f *fleet) spawn(name, addr string, args ...string) (*child, error) {
	if addr == "" {
		var err error
		if addr, err = freeAddr(); err != nil {
			return nil, err
		}
	}
	log, err := os.OpenFile(filepath.Join(f.out, name+".log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(f.bin, append([]string{"-addr", addr, "-gc", "0", "-ttl", "0"}, args...)...)
	cmd.Stderr = log
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	// Under the lock, so that a signal's close cannot slip between the
	// start of a child and its registration.
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		log.Close()
		return nil, errors.New("the benchmark is shutting down")
	}
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, err
	}
	c := &child{name: name, addr: addr, cmd: cmd, log: log}
	f.children = append(f.children, c)
	return c, nil
}

// kill SIGKILLs the child's process group and waits for it.
func (c *child) kill() {
	c.once.Do(func() {
		syscall.Kill(-c.pid(), syscall.SIGKILL)
		c.cmd.Wait()
		c.log.Close()
	})
}

// close stops every child and removes the temp directory. It is safe to
// call more than once and from the signal handler.
func (f *fleet) close() {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, c := range f.children {
		c.kill()
	}
	f.children, f.closed = nil, true
	os.RemoveAll(f.tmp)
}

var control = &http.Client{Timeout: 60 * time.Second}

// waitHealthy polls the child until it is ready for runs: /healthz
// answers 200, and a path behind the gate a journaled host keeps shut
// while it replays its journal answers something other than 503 (404:
// there is no such run).
func (c *child) waitHealthy(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for _, probe := range []struct {
		path  string
		ready func(status int) bool
	}{
		{"/healthz", func(status int) bool { return status == http.StatusOK }},
		{"/v1/runs/-/stats", func(status int) bool { return status != http.StatusServiceUnavailable }},
	} {
		for {
			resp, err := control.Get(c.url() + probe.path)
			if err == nil {
				resp.Body.Close()
				if probe.ready(resp.StatusCode) {
					break
				}
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%s did not become ready on %s within %v (see %s)", c.name, c.addr, timeout, c.log.Name())
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

// procStatusKB reads one "Key:   value kB" line of /proc/<pid>/status.
func procStatusKB(pid int, key string) (float64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				return strconv.ParseFloat(f[0], 64)
			}
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", key, pid)
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB(pid int) (float64, error) {
	kb, err := procStatusKB(pid, "VmHWM")
	return kb / 1024, err
}

// cpuSeconds is the process's user+system CPU time so far, from
// /proc/<pid>/stat in clock ticks (100 per second on Linux).
func cpuSeconds(pid int) (float64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields are counted after the
	// closing parenthesis: state is the 1st, utime the 12th, stime the 13th.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	return (ut + st) / 100, nil
}

// dirBytes sums the sizes of the regular files directly in dir.
func dirBytes(dir string) int64 {
	var n int64
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n
}
