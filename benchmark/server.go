package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
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
)

// clockTick is the kernel's USER_HZ: /proc/<pid>/stat reports utime and
// stime in these units. It is 100 on every Linux platform Go supports.
const clockTick = 100

// serverProc is one running microserve child.
type serverProc struct {
	cmd       *exec.Cmd
	addr      string // host:port of the serving listener
	debugAddr string // host:port of the pprof sidecar
	flags     []string
	logPath   string
	logFile   *os.File
	waitErr   chan error
}

// freePort asks the kernel for an unused loopback port.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// serverFlags returns the workload's microserve flags apart from the
// listen addresses. No rate limiter on any workload.
func serverFlags(spec *workloadSpec, artifact, runDir string) []string {
	flags := []string{"-load", "micro=" + artifact}
	if spec.Name == "mixed_online" {
		// queue= is raised from its 4096 default: at closed-loop ingest
		// speed a 250 ms fold tick overflows two 4096-event shards and the
		// sink drops, and a workload must not fail operations by design.
		flags = append(flags,
			"-online", "model=sdbn+micro,interval=2s,min=100,queue=131072",
			"-wal", "dir="+filepath.Join(runDir, "wal")+",fsync=interval=100ms")
	}
	return flags
}

// startServer launches bin with the given flags on fresh loopback
// ports and waits until /healthz answers 200.
func startServer(ctx context.Context, bin string, flags []string, runDir string) (*serverProc, error) {
	addr, err := freePort()
	if err != nil {
		return nil, err
	}
	debugAddr, err := freePort()
	if err != nil {
		return nil, err
	}
	sp := &serverProc{addr: addr, debugAddr: debugAddr, logPath: filepath.Join(runDir, "server.log")}
	sp.flags = append([]string{"-addr", addr, "-debug-addr", debugAddr}, flags...)
	if sp.logFile, err = os.OpenFile(sp.logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644); err != nil {
		return nil, err
	}
	sp.cmd = exec.Command(bin, sp.flags...)
	sp.cmd.Stdout, sp.cmd.Stderr = sp.logFile, sp.logFile
	// If this process is killed before it can stop the server (a closed
	// pipe, an impatient driver), the kernel does it: no run may leave
	// a server behind to disturb the next one.
	sp.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := sp.cmd.Start(); err != nil {
		sp.logFile.Close()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	sp.waitErr = make(chan error, 1)
	go func() { sp.waitErr <- sp.cmd.Wait() }()

	deadline := time.Now().Add(20 * time.Second)
	client := &http.Client{Timeout: time.Second}
	for {
		resp, err := client.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return sp, nil
			}
		}
		select {
		case werr := <-sp.waitErr:
			sp.waitErr <- werr
			sp.logFile.Close()
			return nil, fmt.Errorf("microserve exited during boot (%v); log: %s", werr, sp.tailLog())
		case <-ctx.Done():
			sp.stop()
			return nil, ctx.Err()
		default:
		}
		if time.Now().After(deadline) {
			sp.stop()
			return nil, fmt.Errorf("microserve never became healthy on %s; log: %s", addr, sp.tailLog())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (sp *serverProc) pid() int { return sp.cmd.Process.Pid }

// stop asks the server to drain (SIGTERM), waits for it, and kills it
// if it does not exit. Safe to call twice.
func (sp *serverProc) stop() {
	if sp.cmd == nil || sp.cmd.Process == nil {
		return
	}
	_ = sp.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-sp.waitErr:
		sp.waitErr <- err
	case <-time.After(15 * time.Second):
		_ = sp.cmd.Process.Kill()
		err := <-sp.waitErr
		sp.waitErr <- err
	}
	sp.logFile.Close()
}

func (sp *serverProc) tailLog() string {
	b, err := os.ReadFile(sp.logPath)
	if err != nil {
		return err.Error()
	}
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(bytes.TrimSpace(b))
}

// cpuTicks reads utime and stime (clock ticks) of pid from
// /proc/<pid>/stat.
func cpuTicks(pid int) (utime, stime uint64, err error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, 0, err
	}
	return parseProcStat(string(b))
}

// parseProcStat extracts fields 14 and 15. The command name (field 2)
// is parenthesised and may itself contain spaces or parentheses, so
// fields are counted from the last ')'.
func parseProcStat(s string) (utime, stime uint64, err error) {
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, 0, errors.New("malformed /proc stat line")
	}
	f := strings.Fields(s[i+1:]) // f[0] is field 3 (state)
	if len(f) < 13 {
		return 0, 0, errors.New("short /proc stat line")
	}
	if utime, err = strconv.ParseUint(f[11], 10, 64); err != nil {
		return 0, 0, err
	}
	if stime, err = strconv.ParseUint(f[12], 10, 64); err != nil {
		return 0, 0, err
	}
	return utime, stime, nil
}

// schedstat sums /proc/<pid>/task/<tid>/schedstat over every thread of
// pid: the time the threads spent on a core, to the nanosecond, and the
// time they were runnable but waiting for one — the queueing-for-CPU
// part of the server's service time that no layer of the program owns.
func schedstat(pid int) (onCPU, runnable time.Duration) {
	paths, _ := filepath.Glob("/proc/" + strconv.Itoa(pid) + "/task/*/schedstat")
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		if f := strings.Fields(string(b)); len(f) >= 2 {
			run, err1 := strconv.ParseInt(f[0], 10, 64)
			wait, err2 := strconv.ParseInt(f[1], 10, 64)
			if err1 == nil && err2 == nil {
				onCPU += time.Duration(run)
				runnable += time.Duration(wait)
			}
		}
	}
	return onCPU, runnable
}

// vmHWMMB reads the peak resident set size of pid in MB.
func vmHWMMB(pid int) (float64, error) {
	f, err := os.Open("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if kb, ok := parseStatusKB(sc.Text(), "VmHWM:"); ok {
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM line in /proc status")
}

func parseStatusKB(line, key string) (float64, bool) {
	if !strings.HasPrefix(line, key) {
		return 0, false
	}
	f := strings.Fields(line[len(key):])
	if len(f) == 0 {
		return 0, false
	}
	kb, err := strconv.ParseFloat(f[0], 64)
	return kb, err == nil
}

// selfCPU returns this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
