package sim

import (
	"repro/internal/dataflow"
	"repro/internal/memory"
	"repro/internal/optimizer"
)

// Baseline configurations of Section 5.1. These reproduce the paper's
// "current dominant practice": best-practice SQL-era tuning guides with no
// awareness of CNN footprints, which is precisely what makes them
// crash-prone.

// sparkDefaultNP is Spark's default shuffle partition count.
const sparkDefaultNP = 200

// igniteDefaultNP is the paper's Ignite partition default ("np set to the
// default 1024").
const igniteDefaultNP = 1024

// BaselineSpark returns the Lazy-k Spark config: 29 GB JVM heap on a 32 GB
// node, 40% User Memory, shuffle join, deserialized persistence, default np
// — and, crucially, no budget at all for the DL system.
func BaselineSpark(cpu int) Config {
	return Config{
		CPU:       cpu,
		NP:        sparkDefaultNP,
		Apportion: memory.BaselineSparkApportionment(memory.GB(32), memory.GB(29)),
		Join:      dataflow.ShuffleJoin,
		Pers:      dataflow.Deserialized,
	}
}

// BaselineIgnite returns the Lazy-k Ignite config: 4 GB JVM heap, 25 GB
// static off-heap Storage, default 1024 partitions.
func BaselineIgnite(cpu int) Config {
	return Config{
		CPU:       cpu,
		NP:        igniteDefaultNP,
		Apportion: memory.BaselineIgniteApportionment(memory.GB(32), memory.GB(4), memory.GB(25)),
		Join:      dataflow.ShuffleJoin,
		Pers:      dataflow.Deserialized,
	}
}

// TunedBaseline returns the "strong baseline" config of Section 5.1 (used
// for Lazy-5 with Pre-mat and Eager): like Vista, it explicitly apportions
// CNN inference, Storage, User, and Core memory from the Demand of the
// Planned tables — "note that Lazy-5 with Pre-mat and Eager actually need
// parts of our code from Vista" — but keeps the fixed degree of parallelism,
// with the Equation 13/14 partition count at that cpu.
func TunedBaseline(w Workload, cpu int) Config {
	in := w.Inputs
	params := optimizer.DefaultParams()
	cfg := Config{CPU: cpu, NP: sparkDefaultNP, Join: dataflow.ShuffleJoin, Pers: dataflow.Deserialized}
	t, _, err := optimizer.Planned(in, params)
	if err != nil {
		// More layers than the model has: NewWorkload never builds such a
		// workload, and every region left empty crashes it.
		return cfg
	}
	cfg.NP = optimizer.NumPartitions(t.Single, cpu, in.NNodes, params.PMax)
	need := optimizer.Demand(in, cpu, cfg.NP, t, params)
	cfg.Apportion = memory.Apportionment{
		OSReserved:  params.MemOSReserved,
		DLExecution: need.DL,
		User:        need.User,
		Core:        params.MemCore,
		Storage:     max(0, in.MemSys-params.MemOSReserved-params.MemCore-need.DL-need.User),
	}
	return cfg
}
