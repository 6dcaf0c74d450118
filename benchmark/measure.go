package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostSample is a snapshot of the process and host counters a pass is
// measured by.
type hostSample struct {
	wall  time.Time
	cpu   time.Duration // user + system CPU of this process
	alloc uint64        // runtime.MemStats.TotalAlloc
	steal uint64        // host steal ticks (/proc/stat), 0 when unavailable
}

func sampleHost() hostSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return hostSample{wall: time.Now(), cpu: cpuTime(), alloc: ms.TotalAlloc, steal: stealTicks()}
}

// passCost is the host cost between two samples.
type passCost struct {
	wall  time.Duration
	cpu   time.Duration
	alloc uint64
	steal uint64
}

func costBetween(a, b hostSample) passCost {
	return passCost{wall: b.wall.Sub(a.wall), cpu: b.cpu - a.cpu, alloc: b.alloc - a.alloc, steal: b.steal - a.steal}
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS restarts the kernel's peak-RSS count for this process
// (Linux clear_refs 5), so that each pass reports its own peak. Where the
// reset is unavailable the peak stays the process's lifetime peak.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the peak resident set size since the last resetPeakRSS, in
// MiB: VmHWM from /proc/self/status, or ru_maxrss where that is missing.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.Atoi(f[1]); err == nil {
					return float64(kb) / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // KiB on Linux
}

// settle collects garbage and returns freed pages to the OS, so that one
// pass's garbage neither inflates the next pass's peak RSS nor lands in
// its CPU time.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// heapMB is the live heap after a full collection, in MiB.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// stealTicks is the host's accumulated steal time in clock ticks: time the
// hypervisor ran something else while this VM wanted the CPU.
func stealTicks() uint64 {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0
	}
	fields := strings.Fields(sc.Text()) // cpu user nice system idle iowait irq softirq steal ...
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseUint(fields[8], 10, 64)
	return v
}

// machine is the metadata printed with every result, so that a pass can be
// read against the host it ran on.
type machine struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	MemTotalMB int    `json:"mem_total_mb"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"commit"`
	SourceHash string `json:"source_sha256"`
}

func describeMachine() machine {
	return machine{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		MemTotalMB: memTotalMB(),
		GoVersion:  runtime.Version(),
		Kernel:     kernelRelease(),
		Commit:     commit(),
		SourceHash: sourceHash("."),
	}
}

func memTotalMB() int {
	data, err := os.ReadFile("/proc/meminfo")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "MemTotal:" {
			kb, _ := strconv.Atoi(f[1])
			return kb / 1024
		}
	}
	return 0
}

func kernelRelease() string {
	data, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(data))
}

// commit is the commit checked out in ./.git, or "none" outside a git work
// tree (the source hash still identifies the code).
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head)) // detached HEAD
	}
	if id, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(filepath.Join(".git", "packed-refs"))
	if err != nil {
		return "none"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[1] == ref {
			return f[0]
		}
	}
	return "none"
}

// sourceHash is a sha256 over the path and contents of every Go source and
// go.mod file under root, in path order, skipping dot directories (build
// output lives there).
func sourceHash(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			paths = append(paths, path)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		h.Write([]byte(filepath.ToSlash(p)))
		h.Write([]byte{0})
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}
