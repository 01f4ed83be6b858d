package main

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// minCompleted is the fewest successful window requests an end-to-end run
// accepts: p95 then has at least ten samples beyond it.
const minCompleted = 200

var errTooFew = errors.New("too few completed requests")

// checkCompleted enforces the sample floor behind the latency percentiles.
func checkCompleted(completed, floor int) error {
	if completed < floor {
		return fmt.Errorf("%w: %d, need %d (lengthen --seconds)", errTooFew, completed, floor)
	}
	return nil
}

// nearestRank returns the p-th percentile (0 < p <= 100) of an ascending
// sample by the nearest-rank method: the smallest value with at least p% of
// the sample at or below it.
func nearestRank(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	r := int(math.Ceil(p / 100 * float64(len(sorted))))
	if r < 1 {
		r = 1
	}
	return sorted[r-1]
}

// median of an unsorted sample (mean of the middle two for even sizes).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	kb, err := procStatusKB("VmHWM")
	return kb / 1024, err
}

func procStatusKB(field string) (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), field+":"); ok {
			return strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
		}
	}
	return 0, fmt.Errorf("/proc/self/status: no %s", field)
}

// host describes the machine a result was measured on.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
}

func hostInfo() host {
	h := host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), CPU: "unknown"}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}
