package main

import (
	"runtime"
	"sort"
	"syscall"
	"time"
)

// cpuSeconds is the process's CPU time, user plus system, from
// getrusage. Time the hypervisor steals from the guest is not in it,
// so on a shared host it is far steadier than wall-clock.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// peakRSSBytes is the process's resident-set high-water mark.
func peakRSSBytes() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return float64(ru.Maxrss) * 1024 // Linux reports kilobytes
}

// liveHeapBytes forces a collection and reports the heap still live.
func liveHeapBytes() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// heapBytes reports the bytes of heap in use and the bytes allocated
// since the process started.
func heapBytes() (inUse, total uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc, ms.TotalAlloc
}

// mallocs is the cumulative count of heap allocations.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// meter measures one interval in CPU and wall time.
type meter struct {
	cpu  float64
	wall time.Time
}

func startMeter() meter { return meter{cpu: cpuSeconds(), wall: time.Now()} }

// stop returns the CPU and wall seconds since start.
func (m meter) stop() (cpu, wall float64) {
	return cpuSeconds() - m.cpu, time.Since(m.wall).Seconds()
}

// median of a sample; 0 for an empty one.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), so the spread printed here is the one a Python check of the
// same values sees. A single value is its own quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}
