package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"time" //hgwlint:allowfile detlint the benchmark times the program in host wall time by design; it runs outside the equal-seed contract

	"hgw"
)

// defaultSeed is the seed whose render digests are recorded in the
// workloads; other seeds are checked for repeatability only.
const defaultSeed = 1

// renderCheck checks that every operation of a run renders the same
// bytes, and, for the default seed, the bytes recorded for the code
// the benchmark was written against.
type renderCheck struct {
	seed     int64
	recorded string // digest for defaultSeed
	first    string
}

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

func (c *renderCheck) check(rs hgw.Results) error {
	d := digest(rs.Render())
	if c.first == "" {
		c.first = d
		if c.seed == defaultSeed && d != c.recorded {
			return fmt.Errorf("render digest %s, recorded %s", d, c.recorded)
		}
		return nil
	}
	if d != c.first {
		return fmt.Errorf("render digest %s differs from the run's first %s", d, c.first)
	}
	return nil
}

// measureSerial runs op back to back for d, after one untimed warm-up
// operation that lets pools fill and the heap grow, and reports
// ops_per_s and op_p50_ms. Every operation, the warm-up too, is
// checked.
func measureSerial(d time.Duration, t *tally, m metrics, op func() error) {
	t.record(op())
	var lats []time.Duration
	start := time.Now()
	for len(lats) == 0 || time.Since(start) < d {
		s := time.Now()
		err := op()
		lats = append(lats, time.Since(s))
		t.record(err)
	}
	wall := time.Since(start)
	n := float64(len(lats))
	m.set("ops_per_s", n/wall.Seconds(), "1/s")
	m.setMedian("op_p50_ms", millis(lats), "ms")
	fmt.Fprintf(os.Stderr, "benchmark: %d ops, ms: %.0f\n", len(lats), millis(lats))
}
