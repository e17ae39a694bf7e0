package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// userHZ is the tick rate /proc/stat counts in (USER_HZ, 100 on every
// Linux the Go toolchain supports).
const userHZ = 100

// stealTicks is one read of the hypervisor steal counters: the all-CPU total
// and one entry per vCPU, in USER_HZ ticks.
type stealTicks struct {
	total uint64
	per   []uint64
}

// readSteal parses the steal column (the eighth value) of the cpu lines of
// /proc/stat.
func readSteal() (stealTicks, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return stealTicks{}, fmt.Errorf("read /proc/stat: %w", err)
	}
	var st stealTicks
	found := false
	for _, line := range bytes.Split(b, []byte{'\n'}) {
		if !bytes.HasPrefix(line, []byte("cpu")) {
			continue
		}
		f := strings.Fields(string(line))
		if len(f) < 9 {
			return stealTicks{}, fmt.Errorf("/proc/stat: short cpu line %q", line)
		}
		v, err := strconv.ParseUint(f[8], 10, 64)
		if err != nil {
			return stealTicks{}, fmt.Errorf("/proc/stat: steal of %s: %w", f[0], err)
		}
		if f[0] == "cpu" {
			st.total, found = v, true
		} else {
			st.per = append(st.per, v)
		}
	}
	if !found {
		return stealTicks{}, fmt.Errorf("/proc/stat: no aggregate cpu line")
	}
	return st, nil
}

// stealSeconds converts a tick delta to seconds.
func stealSeconds(ticks uint64) float64 { return float64(ticks) / userHZ }

// clock times intervals on the client's wall clock and subtracts the
// hypervisor steal /proc/stat records over the same interval, shared over
// the vCPUs the workload keeps busy. Steal on a vCPU the run leaves idle is
// rare (an idle vCPU is not runnable), so dividing the all-CPU total by the
// busy count estimates the time the measured work itself lost.
//
// The zero clock reads no steal and its intervals are raw wall time. It
// times requests far shorter than a steal tick, which are corrected per
// phase, and requests whose timing is not reported: reading /proc/stat
// twice would cost such requests a large share of their own time.
type clock struct {
	busy float64
}

// stamp is the start of one timed interval.
type stamp struct {
	wall  time.Time
	steal uint64
}

func (c clock) start() stamp {
	var st stealTicks
	if c.busy > 0 {
		st, _ = readSteal() // a failed read was reported at start-up; it reads as zero steal
	}
	return stamp{wall: time.Now(), steal: st.total}
}

// interval is one measured span: its start, raw wall time, steal over it
// (all vCPUs, seconds) and the corrected time.
type interval struct {
	at        time.Time
	raw, corr time.Duration
	steal     float64
}

func (c clock) stop(s stamp) interval {
	raw := time.Since(s.wall)
	if c.busy == 0 {
		return interval{at: s.wall, raw: raw, corr: raw}
	}
	st, _ := readSteal()
	var ticks uint64
	if st.total > s.steal {
		ticks = st.total - s.steal
	}
	steal := stealSeconds(ticks)
	corr := raw - time.Duration(steal/c.busy*float64(time.Second))
	if corr < 0 {
		corr = 0
	}
	return interval{at: s.wall, raw: raw, corr: corr, steal: steal}
}

// resetPeakRSS lowers the process's peak resident set (VmHWM) to its
// current resident set, so that the next peakRSSMB covers only what runs
// after it.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset the peak resident set: %w", err)
	}
	return nil
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("/proc/self/status: no VmHWM line")
}

// processCPU is the process's user plus system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// refKernel is the benchmark's own reference workload, timed to tell a slow
// host from slow code. It calls no program code. Like the engine's leaf
// scans it streams point coordinates from memory and accumulates a smooth
// kernel of each point's squared distance to a query; its array is larger
// than the last-level cache, so it is memory-bound the same way. The array
// lives only while the kernel is timed, so it adds nothing to the peak
// resident set or the heap the program's collections see.
type refKernel struct {
	xy []float64
}

func newRefKernel() *refKernel {
	const points = 1 << 20 // 16 MiB of coordinates
	rng := rand.New(rand.NewSource(20200614))
	xy := make([]float64, 2*points)
	for i := range xy {
		xy[i] = rng.Float64() * 100
	}
	return &refKernel{xy: xy}
}

// run scans every point once and returns the scan's wall time in ms.
func (r *refKernel) run() float64 {
	start := time.Now()
	const qx, qy, inv = 50.0, 50.0, 1 / 25.0
	sum := 0.0
	xy := r.xy
	for i := 0; i+1 < len(xy); i += 2 {
		dx, dy := xy[i]-qx, xy[i+1]-qy
		d := (dx*dx + dy*dy) * inv
		sum += 1 / (1 + d + 0.5*d*d)
	}
	ms := float64(time.Since(start)) / float64(time.Millisecond)
	refSink = sum
	return ms
}

// refSink keeps the compiler from discarding the reference scan.
var refSink float64
