package app

// StoreLens is every shard's entry count on its primary, 0 for a shard
// whose primary is down. It is defined for tests only, so the serving
// tests outside the package can read the stores.
func StoreLens(a *App) []int {
	out := make([]int, len(a.Map.Shards))
	for s, in := range a.Map.Shards {
		if in.Primary >= 0 && !a.down[in.Primary] && a.nodes[in.Primary] != nil {
			out[s] = a.nodes[in.Primary].shards[s].store.Len()
		}
	}
	return out
}
