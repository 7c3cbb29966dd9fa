package featurestore

import "repro/internal/obs"

// RegisterMetrics exposes the store's counters as func-backed series in reg,
// read live at scrape time. Re-registering (e.g. per run against a long-lived
// server registry) is safe: the registry replaces the callbacks, so the most
// recently registered store backs the series.
func (s *Store) RegisterMetrics(reg *obs.Registry) {
	stat := func(read func(Stats) int64) func() float64 {
		return func() float64 { return float64(read(s.Snapshot())) }
	}
	reg.CounterFunc("vista_featurestore_hits_total",
		"Store lookups served from a materialized entry.",
		stat(func(st Stats) int64 { return st.Hits }))
	reg.CounterFunc("vista_featurestore_misses_total",
		"Store lookups that found no entry.",
		stat(func(st Stats) int64 { return st.Misses }))
	reg.CounterFunc("vista_featurestore_read_bytes_total",
		"Serialized bytes of the entries hits read and decoded.",
		stat(func(st Stats) int64 { return st.ReadBytes }))
	reg.CounterFunc("vista_featurestore_puts_total",
		"Feature tables materialized into the store.",
		stat(func(st Stats) int64 { return st.Puts }))
	reg.CounterFunc("vista_featurestore_dedup_puts_total",
		"Puts skipped because identical content was already stored.",
		stat(func(st Stats) int64 { return st.DedupPuts }))
	reg.CounterFunc("vista_featurestore_evictions_total",
		"Entries evicted to stay under the byte budget.",
		stat(func(st Stats) int64 { return st.Evictions }))
	reg.CounterFunc("vista_featurestore_evicted_bytes_total",
		"Bytes released by evictions.",
		stat(func(st Stats) int64 { return st.EvictedBytes }))
	reg.GaugeFunc("vista_featurestore_entries",
		"Materialized entries currently resident.",
		stat(func(st Stats) int64 { return int64(st.Entries) }))
	reg.GaugeFunc("vista_featurestore_used_bytes",
		"Bytes of serialized features on disk.",
		stat(func(st Stats) int64 { return st.UsedBytes }))
	reg.GaugeFunc("vista_featurestore_budget_bytes",
		"Configured byte budget (0 = unlimited).",
		stat(func(st Stats) int64 { return st.BudgetBytes }))
}
