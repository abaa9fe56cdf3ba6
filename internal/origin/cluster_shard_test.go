package origin

import (
	"fmt"
	"testing"

	"repro/internal/netem"
)

// loadTable runs one fixed workload against a cluster deployed with the
// given shard count and renders its Loads() books as text.
func loadTable(t *testing.T, shards int) string {
	t.Helper()
	cluster, n, wifi, lte := testDeployment(t, ClusterConfig{ReplicasPerNetwork: 3, Shards: shards})
	onClock(t, n.Clock(), func(p *netem.Participant) error {
		for _, side := range []struct {
			iface   *netem.Interface
			network string
		}{{wifi, "wifi"}, {lte, "lte"}} {
			c := newClient(p, side.iface)
			info, err := c.watch(cluster, side.network, "shortclip01")
			if err != nil {
				return fmt.Errorf("shards=%d %s: %w", shards, side.network, err)
			}
			for i, s := range info.VideoServers {
				// Uneven per-replica traffic, so a mis-merged table
				// can't pass by symmetry.
				if _, err := c.getRange(info.PlaybackURL(s, 22), 0, int64(1000*(i+1))-1); err != nil {
					return fmt.Errorf("shards=%d %s replica %s: %w", shards, side.network, s, err)
				}
			}
			c.close()
		}
		if !cluster.Drain(p) {
			return fmt.Errorf("shards=%d: cluster drain did not settle", shards)
		}
		return nil
	})
	var out string
	for _, l := range cluster.Loads() {
		out += fmt.Sprintf("%s %s %d %d %d %d\n", l.Addr, l.Network, l.Total, l.Bytes, l.Aborted, l.InFlight)
	}
	return out
}

// TestShardedLoadsMergeInDeploymentOrder pins the wire-invisibility of
// instance-table sharding: the same workload against 1, 3 and 8 shards
// must render identical Loads tables, ordered by global deployment
// sequence, with every byte attributed.
func TestShardedLoadsMergeInDeploymentOrder(t *testing.T) {
	base := loadTable(t, 1)
	if base == "" {
		t.Fatal("empty loads table")
	}
	for _, shards := range []int{3, 8} {
		if got := loadTable(t, shards); got != base {
			t.Errorf("shards=%d loads table diverged:\n--- shards=1\n%s--- shards=%d\n%s", shards, base, shards, got)
		}
	}
}
