package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// stampedLine is one line of child output with its arrival time.
type stampedLine struct {
	at   time.Time
	text string
}

// child is a running program under test whose output is read line by
// line as it arrives, so readiness and result lines carry arrival times
// and the child never blocks on a full pipe.
type child struct {
	cmd   *exec.Cmd
	start time.Time

	mu     sync.Mutex
	lines  []stampedLine
	notify chan struct{} // closed and replaced on every new line
	eof    bool

	readDone chan struct{}
	exited   chan struct{}
	state    *os.ProcessState
	waitErr  error
}

// startChild starts bin with args; extraEnv is appended to the
// benchmark's own environment.
func startChild(bin string, args []string, extraEnv ...string) (*child, error) {
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), extraEnv...)
	// A child outlives no benchmark process, however that one ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	pr, pw, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	cmd.Stdout, cmd.Stderr = pw, pw
	c := &child{cmd: cmd, notify: make(chan struct{}), readDone: make(chan struct{}), exited: make(chan struct{})}
	c.start = time.Now()
	if err := cmd.Start(); err != nil {
		_ = pr.Close()
		_ = pw.Close()
		return nil, err
	}
	_ = pw.Close() // the child holds the write end now
	go c.read(pr)
	go func() {
		c.waitErr = cmd.Wait()
		c.state = cmd.ProcessState
		close(c.exited)
	}()
	return c, nil
}

func (c *child) read(pr *os.File) {
	defer close(c.readDone)
	defer func() { _ = pr.Close() }()
	sc := bufio.NewScanner(pr)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		c.mu.Lock()
		c.lines = append(c.lines, stampedLine{at: time.Now(), text: sc.Text()})
		close(c.notify)
		c.notify = make(chan struct{})
		c.mu.Unlock()
	}
	c.mu.Lock()
	c.eof = true
	close(c.notify)
	c.notify = make(chan struct{})
	c.mu.Unlock()
}

// waitLine returns the first line at or after *cursor that starts with
// prefix, advancing the cursor past it.
func (c *child) waitLine(cursor *int, prefix string, timeout time.Duration) (stampedLine, error) {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		c.mu.Lock()
		for ; *cursor < len(c.lines); *cursor++ {
			if l := c.lines[*cursor]; strings.HasPrefix(l.text, prefix) {
				*cursor++
				c.mu.Unlock()
				return l, nil
			}
		}
		eof, notify := c.eof, c.notify
		c.mu.Unlock()
		if eof {
			return stampedLine{}, fmt.Errorf("child exited before printing %q:\n%s", prefix, c.tail(20))
		}
		select {
		case <-notify:
		case <-deadline.C:
			return stampedLine{}, fmt.Errorf("no %q line within %v:\n%s", prefix, timeout, c.tail(20))
		}
	}
}

// output returns every line read so far.
func (c *child) output() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, len(c.lines))
	for i, l := range c.lines {
		out[i] = l.text
	}
	return out
}

func (c *child) tail(n int) string {
	out := c.output()
	if len(out) > n {
		out = out[len(out)-n:]
	}
	return strings.Join(out, "\n")
}

// cpu returns the CPU time the child's threads have run so far: the sum
// of the first field of /proc/<pid>/task/*/schedstat (nanoseconds). The
// Go runtime keeps its threads, so the sum only grows.
func (c *child) cpu() (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", c.cmd.Process.Pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, t := range tasks {
		data, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if err != nil {
			continue // the thread exited between the listing and the read
		}
		f := strings.Fields(string(data))
		if len(f) == 0 {
			return 0, fmt.Errorf("empty schedstat for task %s", t.Name())
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("schedstat %q: %w", data, err)
		}
		total += ns
	}
	return time.Duration(total), nil
}

// statusKB reads one memory field of /proc/<pid>/status ("VmRSS",
// "VmHWM") in bytes.
func (c *child) statusKB(field string) (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, l := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(l, field+":"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			return kb << 10, err
		}
	}
	return 0, fmt.Errorf("no %s in /proc status", field)
}

// wait waits for the child to exit, killing it after timeout, and returns
// its total CPU time. (Its rusage peak RSS is not used: the child starts
// as a vfork of the benchmark and inherits its high-water mark until
// exec, so peak memory is read from VmHWM while the child runs.)
func (c *child) wait(timeout time.Duration) (time.Duration, error) {
	select {
	case <-c.exited:
	case <-time.After(timeout):
		_ = c.cmd.Process.Kill()
		<-c.exited
		<-c.readDone
		return 0, fmt.Errorf("child did not exit within %v; killed:\n%s", timeout, c.tail(20))
	}
	<-c.readDone
	if c.waitErr != nil {
		return 0, fmt.Errorf("child failed: %v:\n%s", c.waitErr, c.tail(20))
	}
	ru, ok := c.state.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0, fmt.Errorf("no rusage for child")
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// kill stops a child that is still running and waits for it; safe to call
// on an exited child.
func (c *child) kill() {
	select {
	case <-c.exited:
	default:
		_ = c.cmd.Process.Kill()
		<-c.exited
	}
	<-c.readDone
}
