//go:build race

package fleet

// The race detector makes sync.Pool drop a quarter of Puts at random,
// so pooled paths allocate more under it; the allocation ledger reads
// this.
func init() { raceEnabled = true }
