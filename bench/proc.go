package main

import (
	"runtime"
	"syscall"
	"time"
)

// procSample is the process-wide cost counters at one instant.
type procSample struct {
	cpu     time.Duration // user+sys, getrusage
	alloc   uint64        // MemStats.TotalAlloc
	mallocs uint64        // MemStats.Mallocs
}

func readProc() procSample {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSample{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:   ms.TotalAlloc,
		mallocs: ms.Mallocs,
	}
}

// cost is the per-op process cost of a timed window.
type cost struct {
	cpuUsPerOp, allocKBPerOp, allocsPerOp float64
}

func costBetween(a, b procSample, ops int) cost {
	n := float64(ops)
	return cost{
		cpuUsPerOp:   float64(b.cpu-a.cpu) / 1e3 / n,
		allocKBPerOp: float64(b.alloc-a.alloc) / 1024 / n,
		allocsPerOp:  float64(b.mallocs-a.mallocs) / n,
	}
}

// procTotals reports the process's memory and GC figures at the end of
// a run; since is the garbage collector's state when the run began
// (several workloads may run in one process; the peak RSS is the
// process's in any case).
func procTotals(r *results, since runtime.MemStats) {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	cycles := int(ms.NumGC - since.NumGC)
	r.set("proc.peak_rss_mb", float64(ru.Maxrss)/1024, 1) // Linux reports KiB
	r.set("proc.gc_pause_ms", float64(ms.PauseTotalNs-since.PauseTotalNs)/1e6, cycles)
	r.set("proc.gc_cycles", float64(cycles), 1)
	runtime.GC()
	runtime.ReadMemStats(&ms)
	r.set("proc.heap_live_mb_end", float64(ms.HeapAlloc)/(1<<20), 1)
}
