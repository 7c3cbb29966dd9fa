package sim

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/memory"
)

// profileJSON is the on-disk form of a Profile, letting users calibrate the
// simulator to their own cluster without recompiling.
type profileJSON struct {
	Name              string  `json:"name"`
	Kind              string  `json:"kind"` // "spark" or "ignite"
	Nodes             int     `json:"nodes"`
	CoresPerNode      int     `json:"cores_per_node"`
	MemPerNodeGB      float64 `json:"mem_per_node_gb"`
	DriverMemGB       float64 `json:"driver_mem_gb"`
	BaseGFLOPS        float64 `json:"base_gflops"`
	ScanMBps          float64 `json:"scan_mbps"`
	DiskMBps          float64 `json:"disk_mbps"`
	SpillMBps         float64 `json:"spill_mbps"`
	NetMBps           float64 `json:"net_mbps"`
	PerImageReadMs    float64 `json:"per_image_read_ms"`
	ReadParallelExp   float64 `json:"read_parallel_exp"`
	PerTaskOverheadMs float64 `json:"per_task_overhead_ms"`
	GPUMemGB          float64 `json:"gpu_mem_gb"`
	GPUGFLOPS         float64 `json:"gpu_gflops"`
}

// loadProfile reads a cluster profile from a JSON file. Missing fields
// default to the paper cluster's calibrated values, so a user only overrides
// what differs on their hardware.
func loadProfile(path string) (Profile, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return Profile{}, fmt.Errorf("sim: load profile: %w", err)
	}
	return parseProfile(blob)
}

// parseProfile builds a Profile from JSON, defaulting unset fields to the
// paper cluster.
func parseProfile(blob []byte) (Profile, error) {
	var pj profileJSON
	if err := json.Unmarshal(blob, &pj); err != nil {
		return Profile{}, fmt.Errorf("sim: parse profile: %w", err)
	}
	p := PaperCluster()
	if pj.Name != "" {
		p.Name = pj.Name
	}
	switch pj.Kind {
	case "", "spark":
		p.Kind = memory.SparkLike
	case "ignite":
		p.Kind = memory.IgniteLike
	default:
		return Profile{}, fmt.Errorf("sim: unknown profile kind %q (want spark or ignite)", pj.Kind)
	}
	setInt := func(dst *int, v int) {
		if v > 0 {
			*dst = v
		}
	}
	setF := func(dst *float64, v float64) {
		if v > 0 {
			*dst = v
		}
	}
	setInt(&p.Nodes, pj.Nodes)
	setInt(&p.CoresPerNode, pj.CoresPerNode)
	if pj.MemPerNodeGB > 0 {
		p.MemPerNode = memory.GB(pj.MemPerNodeGB)
	}
	if pj.DriverMemGB > 0 {
		p.DriverMem = memory.GB(pj.DriverMemGB)
	}
	setF(&p.BaseGFLOPS, pj.BaseGFLOPS)
	setF(&p.ScanMBps, pj.ScanMBps)
	setF(&p.DiskMBps, pj.DiskMBps)
	setF(&p.SpillMBps, pj.SpillMBps)
	setF(&p.NetMBps, pj.NetMBps)
	setF(&p.PerImageReadMs, pj.PerImageReadMs)
	setF(&p.ReadParallelExp, pj.ReadParallelExp)
	setF(&p.PerTaskOverheadMs, pj.PerTaskOverheadMs)
	if pj.GPUMemGB > 0 {
		gflops := pj.GPUGFLOPS
		if gflops <= 0 {
			gflops = 4500
		}
		p.GPU = &GPUSpec{MemBytes: memory.GB(pj.GPUMemGB), GFLOPS: gflops}
	}
	return p, nil
}
