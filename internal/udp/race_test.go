//go:build race

package udp

// raceEnabled reports whether the race detector is on. It makes
// sync.Pool drop recycled items at random, so the packet pools miss and
// allocation pins cannot hold.
const raceEnabled = true
