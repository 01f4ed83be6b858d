package main

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"
)

// The end-to-end times are calibrated against the host's current speed.
// On a shared host the speed of the same code drifts by 20% and more over
// minutes (other tenants on the same cores), far more than the bounds a
// benchmark can gate on. So around every one-second slice of the window,
// and before every set-up, the benchmark times a fixed kernel of its own
// and scales the times it measured by (kernel rate / calibrationRate): a
// time reads as it would on a host running the kernel at calibrationRate.
// The kernel is benchmark code, identical on both sides of any comparison,
// and the raw wall-clock values are printed alongside.

// calibrationRate is the reference kernel rate, in sweeps per second summed
// over GOMAXPROCS goroutines: about what a 2-vCPU Xeon host runs at.
const calibrationRate = 2e6

// calibrationTime is how long one calibration runs.
const calibrationTime = 60 * time.Millisecond

var calibSink [64]float64

// calibSweeps runs CG-like sweeps (a 6-regular sparse matvec, a dot product
// and an axpy at n=128, the shape of the solver's inner loop) for d and
// returns how many it completed.
func calibSweeps(id int, d time.Duration) int {
	const n, deg = 128, 6
	rng := rand.New(rand.NewSource(1))
	col := make([]int32, n*deg)
	for i := range col {
		col[i] = int32(rng.Intn(n))
	}
	x := make([]float64, n)
	r := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64()
	}
	t0 := time.Now()
	sweeps := 0
	for time.Since(t0) < d {
		for k := 0; k < 50; k++ {
			for i := 0; i < n; i++ {
				s := deg * x[i]
				for _, c := range col[i*deg : (i+1)*deg] {
					s -= x[c]
				}
				y[i] = s
			}
			dot := 0.0
			for i := range y {
				dot += y[i] * x[i]
			}
			a := 1 / (1 + math.Abs(dot))
			for i := range x {
				r[i] = x[i] - a*y[i]
			}
			x, r = r, x
			sweeps++
		}
	}
	calibSink[id%len(calibSink)] += x[0]
	return sweeps
}

// hostFactor measures the host's current speed relative to
// calibrationRate. It first forces a garbage collection, so no collection
// of the daemon's garbage runs during the kernel; the daemon must be idle.
func hostFactor() float64 {
	runtime.GC()
	p := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	sweeps := make([]int, p)
	t0 := time.Now()
	for i := 0; i < p; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sweeps[i] = calibSweeps(i, calibrationTime)
		}(i)
	}
	wg.Wait()
	total := 0
	for _, s := range sweeps {
		total += s
	}
	return float64(total) / time.Since(t0).Seconds() / calibrationRate
}

// rssSampler reads the process's resident set size every 20 ms until
// stopped.
type rssSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64 // MiB; read only after stopped
}

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tk := time.NewTicker(20 * time.Millisecond)
		defer tk.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tk.C:
				if kb, err := procStatusKB("VmRSS"); err == nil {
					s.samples = append(s.samples, kb/1024)
				}
			}
		}
	}()
	return s
}

// stopped stops the sampler, waits for it, and returns its samples sorted.
func (s *rssSampler) stopped() []float64 {
	close(s.stop)
	<-s.done
	sort.Float64s(s.samples)
	return s.samples
}
