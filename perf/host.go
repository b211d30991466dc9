package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"
)

// threads is the engine worker count and GOMAXPROCS of every run, pinned
// so a host with more cores reports comparable numbers.
const threads = 2

// hostFacts are recorded with every report, so a number can be read
// against the machine it was taken on.
type hostFacts struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Threads    int    `json:"threads"`
	GoVersion  string `json:"go_version"`
	GOARCH     string `json:"goarch"`
	L1d        string `json:"l1d"`
	L2         string `json:"l2"`
	L3         string `json:"l3"`
}

func readHostFacts() hostFacts {
	h := hostFacts{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Threads:    threads,
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
	}
	// sysfs lists cpu0's caches as index0..3 = L1d, L1i, L2, L3.
	h.L1d, h.L2, h.L3 = cacheSize(0), cacheSize(2), cacheSize(3)
	return h
}

func cacheSize(index int) string {
	b, err := os.ReadFile(fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/size", index))
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// cpuTimes is the process's consumed CPU, from getrusage.
type cpuTimes struct{ user, sys time.Duration }

func (c cpuTimes) total() time.Duration { return c.user + c.sys }

func (c cpuTimes) sub(o cpuTimes) cpuTimes { return cpuTimes{c.user - o.user, c.sys - o.sys} }

func rusage() (cpuTimes, float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return cpuTimes{}, 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	// Linux reports ru_maxrss in KiB: the peak resident set (VmHWM).
	return cpuTimes{tv(ru.Utime), tv(ru.Stime)}, float64(ru.Maxrss) / 1024
}

func cpuNow() cpuTimes {
	c, _ := rusage()
	return c
}

func peakRSSMB() float64 {
	_, mb := rusage()
	return mb
}

// procMark snapshots the runtime's allocation and GC counters and the
// process CPU, to attribute their growth to one job.
type procMark struct {
	mem runtime.MemStats
	cpu cpuTimes
}

func markProc() procMark {
	var p procMark
	runtime.ReadMemStats(&p.mem)
	p.cpu = cpuNow()
	return p
}

// since fills the proc.* layer metrics with the growth since the mark.
func (p procMark) since(m *measured) {
	now := markProc()
	cpu := now.cpu.sub(p.cpu)
	m.set("proc.alloc_mb_per_job", float64(now.mem.TotalAlloc-p.mem.TotalAlloc)/1e6)
	m.set("proc.gc_cycles_per_job", float64(now.mem.NumGC-p.mem.NumGC))
	m.set("proc.gc_pause_ms_per_job", float64(now.mem.PauseTotalNs-p.mem.PauseTotalNs)/1e6)
	m.set("proc.sys_cpu_share", ratio(cpu.sys.Seconds(), cpu.total().Seconds()))
	m.set("proc.threads", float64(pprof.Lookup("threadcreate").Count()))
}
