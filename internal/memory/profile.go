package memory

import "fmt"

// SystemKind identifies which PD system's memory model an apportionment maps
// onto (Figure 4(B,C)).
type SystemKind int

// PD system kinds.
const (
	// SparkLike: User, Core, and Storage come from the JVM heap; the
	// Storage–Core boundary moves (Core borrows from Storage, evicting
	// partitions to disk); disk spills are supported.
	SparkLike SystemKind = iota
	// IgniteLike: User+Core share the JVM heap; Storage is a static
	// off-heap region; the system is memory-only (no disk spill) as
	// configured in the paper's experiments.
	IgniteLike
)

// String implements fmt.Stringer.
func (k SystemKind) String() string {
	switch k {
	case SparkLike:
		return "spark"
	case IgniteLike:
		return "ignite"
	}
	return fmt.Sprintf("system(%d)", int(k))
}

// SupportsSpill reports whether the system can spill cached partitions to
// disk instead of crashing when Storage Memory fills up.
func (k SystemKind) SupportsSpill() bool { return k == SparkLike }

// Defaults for the baseline (non-Vista) configurations used in Section 5.1.
const (
	// sparkUserFraction is Spark's default User Memory share of the heap
	// (Section 4.1: "Spark allocates 40% of the Heap Memory to User
	// Memory").
	sparkUserFraction = 0.40
	// sparkStorageImmune is the fraction of the Storage/Core share immune
	// to eviction (default 50%).
	sparkStorageImmune = 0.50
)

// BaselineSparkApportionment models the paper's baseline Spark setup
// (Section 5.1: "29 GB JVM heap ... defaults for all other parameters,
// including np and memory apportioning") for a worker with the given System
// Memory and per-thread DL footprint. The heap takes all memory left after
// the OS reservation; crucially, the baseline reserves nothing for the DL
// system — that is exactly what makes naive configurations crash-prone
// (Section 4.1, scenario 1).
func BaselineSparkApportionment(systemMem, heap int64) Apportionment {
	user := int64(float64(heap) * sparkUserFraction)
	rest := heap - user
	// The Storage–Core split is dynamic in Spark; for accounting we take
	// the guideline split with the immune storage fraction.
	storage := int64(float64(rest) * sparkStorageImmune)
	core := rest - storage
	return Apportionment{
		OSReserved:  systemMem - heap, // whatever the heap left over
		DLExecution: 0,                // baseline plans never budget for TF
		User:        user,
		Core:        core,
		Storage:     storage,
	}
}

// igniteHeapOverhead approximates the heap Ignite's own internal structures
// (metrics, discovery, marshaller caches) consume before UDFs see any of it.
const igniteHeapOverhead = 128 << 20

// BaselineIgniteApportionment models the paper's baseline Ignite setup
// (Section 5.1: "4 GB JVM heap, 25 GB off-heap Storage Memory"): the heap is
// all User+Core (split evenly for accounting, less Ignite's own overhead on
// the user side), storage is static off-heap.
func BaselineIgniteApportionment(systemMem, heap, offHeapStorage int64) Apportionment {
	user := heap/2 - igniteHeapOverhead
	if user < 0 {
		user = 0
	}
	return Apportionment{
		OSReserved:  systemMem - heap - offHeapStorage,
		DLExecution: 0,
		User:        user,
		Core:        heap - user,
		Storage:     offHeapStorage,
	}
}
