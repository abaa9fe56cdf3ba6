//go:build race

package netem

// The race detector makes sync.Pool drop a quarter of Puts at random,
// so pooled paths allocate under it; allocation ceilings read this.
func init() { raceEnabled = true }
