package main

import (
	"fmt"
	"math"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// Host-speed normalization. On a shared host the CPU speed a process gets
// drifts by a third within minutes, and the child's CPU-bound figures
// (set-up, CPU time per observation) follow it. The benchmark therefore
// times a fixed kernel of its own code next to each of them and reports
// them at the reference speed: measured × refNominal / the kernel's mean
// time over the same stretch. The kernel's time is bimodal on such a host,
// so the factor uses the mean of many short samples, which follows the
// share of time spent in each mode. The program under test never runs the
// kernel, so a change in the program moves the reported figure in full,
// while a change in the host's speed cancels out.

// refNominal is the reference kernel's CPU time on the reference host.
const refNominal = 700 * time.Microsecond

// hostFactor converts figures measured next to the given reference
// samples (ms) to the reference speed; NaN without samples.
func hostFactor(samplesMs []float64) float64 {
	if len(samplesMs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range samplesMs {
		sum += x
	}
	return float64(refNominal) / float64(time.Millisecond) / (sum / float64(len(samplesMs)))
}

// refSamples appends n reference kernel samples (ms) to dst.
func refSamples(dst []float64, n int) []float64 {
	for i := 0; i < n; i++ {
		if d, err := refProbe(); err == nil {
			dst = append(dst, float64(d)/float64(time.Millisecond))
		}
	}
	return dst
}

// refN is the order of the reference kernel's matrix: 32 KiB of float64,
// cache-resident like the plane's per-unit models.
const refN = 64

// refMatrix and refSink keep the reference kernel's work observable, so
// the compiler cannot drop it.
var (
	refMatrix = func() []float64 {
		m := make([]float64, refN*refN)
		for i := range m {
			m[i] = float64(i%7) * 0.125
		}
		return m
	}()
	refSink float64
)

// refProbe runs a fixed amount of the benchmark's own float64 work (200
// matrix-vector products) and returns the CPU time the calling thread
// spent on it. The program under test never runs this code, so the
// figure follows only the host's speed at that moment.
func refProbe() (time.Duration, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0, err := threadCPU()
	if err != nil {
		return 0, err
	}
	x := make([]float64, refN)
	y := make([]float64, refN)
	for i := range x {
		x[i] = 1 / float64(i+1)
	}
	for r := 0; r < 200; r++ {
		for i := 0; i < refN; i++ {
			row := refMatrix[i*refN : (i+1)*refN]
			s := 0.0
			for j, v := range row {
				s += v * x[j]
			}
			y[i] = s
		}
		x, y = y, x
		x[r%refN] += 1
	}
	refSink += x[0]
	t1, err := threadCPU()
	if err != nil {
		return 0, err
	}
	return t1 - t0, nil
}

// threadCPU is the calling thread's CPU time (CLOCK_THREAD_CPUTIME_ID,
// which, unlike /proc/thread-self/schedstat, includes the current time
// slice).
func threadCPU() (time.Duration, error) {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, fmt.Errorf("clock_gettime: %w", errno)
	}
	return time.Duration(ts.Nano()), nil
}

// clockThreadCPUTime is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTime = 3
