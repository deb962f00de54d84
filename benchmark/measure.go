package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[n/2]
}

// millis converts durations to milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// rssPeaks samples the process's resident set size high-water mark
// (VmHWM) once per interval, resetting it after each sample, so a run
// reports the median of its per-interval peaks: steadier than the one
// process-wide peak, which a single GC cycle's timing decides. A
// workload whose memory grows with the work it has done holds the
// sampler after a fixed amount of work instead; see hold.
type rssPeaks struct {
	stop, done chan struct{}
	once       sync.Once
	peaks      []float64
}

// rssInterval is about one simulator workload operation, so each
// sample holds one operation's peak.
const rssInterval = 2 * time.Second

func startRSSPeaks() *rssPeaks {
	r := &rssPeaks{stop: make(chan struct{}), done: make(chan struct{})}
	resetHWM()
	go func() {
		defer close(r.done)
		tick := time.NewTicker(rssInterval)
		defer tick.Stop()
		for {
			select {
			case <-r.stop:
				return
			case <-tick.C:
				r.peaks = append(r.peaks, vmHWM())
				resetHWM()
			}
		}
	}()
	return r
}

// hold stops the sampler and fixes the result at the highest peak
// since the start: the peak of the work done so far.
func (r *rssPeaks) hold() {
	r.once.Do(func() {
		close(r.stop)
		<-r.done
		r.peaks = []float64{slices.Max(append(r.peaks, vmHWM()))}
	})
}

// finish stops the sampler unless it is held and returns the median
// per-interval peak in MiB. Where the high-water mark cannot be reset
// (clear_refs needs Linux 4.0), the samples are all the process peak.
func (r *rssPeaks) finish() float64 {
	r.once.Do(func() {
		close(r.stop)
		<-r.done
		r.peaks = append(r.peaks, vmHWM())
	})
	return median(r.peaks)
}

// resetHWM resets VmHWM to the current resident set size.
func resetHWM() { _ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// vmHWM returns the resident set size high-water mark in MiB, or the Go
// runtime's OS-obtained memory where /proc is missing.
func vmHWM() float64 {
	f, err := os.Open("/proc/self/status")
	if err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// allocBytes returns the cumulative bytes the Go heap has allocated.
func allocBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// configuration records what a result was measured with. Results whose
// configurations differ are not comparable.
func configuration(name string, seed int64, d time.Duration, traced bool) (map[string]any, error) {
	src, err := sourceDigest(".")
	if err != nil {
		return nil, err
	}
	return map[string]any{
		"workload":   name,
		"seed":       seed,
		"seconds":    d.Seconds(),
		"trace":      traced,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
		"cpu":        cpuModel(),
		"commit":     gitCommit(),
		"source":     src,
	}, nil
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit returns the checked-out commit, or "none" unless the
// working directory is the top of a git work tree (sourceDigest
// identifies the code then).
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--show-toplevel", "HEAD").Output()
	wd, werr := os.Getwd()
	lines := strings.Fields(string(out))
	if err != nil || werr != nil || len(lines) != 2 || filepath.Clean(lines[0]) != filepath.Clean(wd) {
		return "none"
	}
	return lines[1]
}

// sourceDigest hashes every Go source and module file under root, in
// path order, skipping build output and hidden directories.
func sourceDigest(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, path+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}
