package main

import (
	"bufio"
	"math/rand"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// processStart anchors now(); reads of it use the monotonic clock.
var processStart = time.Now() //detlint:ok benchmark wall-clock anchor; wall metrics are reported as measurements, never compared for identity

// now returns host nanoseconds since process start.
func now() int64 {
	return int64(time.Since(processStart)) //detlint:ok benchmark wall-clock read; see processStart
}

// hostStamp identifies the machine and toolchain a report was measured on.
type hostStamp struct {
	CPU        string
	NProc      int
	GOMAXPROCS int
	Go         string
}

func stampHost() hostStamp {
	return hostStamp{CPU: cpuModel(), NProc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version()}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// calibData is the calibration kernel's fixed input.
var calibData = func() []int {
	r := rand.New(rand.NewSource(1))
	d := make([]int, 1<<14)
	for i := range d {
		d[i] = r.Int()
	}
	return d
}()

// calibRefNs is the calibration time of the reference host the wall
// metrics are normalized to: one on which calibrate takes 1 ms.
const calibRefNs = 1e6

// calibrate times a fixed stdlib kernel (sorting a fixed 16Ki-element
// slice) and returns its host ns. It runs no repository code, so its time
// moves only with the host.
func calibrate() int64 {
	buf := append([]int(nil), calibData...)
	start := now()
	sort.Ints(buf)
	return now() - start
}

// heapAllocs returns the cumulative count of heap objects allocated.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// gcStats returns the completed GC cycles and total stop-the-world pause.
func gcStats() (cycles uint32, pauseNs uint64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.NumGC, m.PauseTotalNs
}

// rssMB returns this process's resident set size (VmRSS) in MiB, or 0
// where /proc is unavailable.
func rssMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmRSS:"); ok { // "VmRSS:   12345 kB"
			if f := strings.Fields(v); len(f) > 0 {
				if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	return 0
}
