package memory

import (
	"errors"
	"fmt"
)

// Region identifies one region of the abstract memory model (Figure 4(A)).
type Region int

// Memory regions.
const (
	// OSReserved is memory for the OS and other processes.
	OSReserved Region = iota
	// DLExecution is memory the DL system (CNN inference and DL downstream
	// models) uses outside the PD system's Storage/Execution regions.
	DLExecution
	// User is the part of Execution Memory used for UDF execution:
	// serialized CNNs, input buffers, and materialized feature TensorLists.
	User
	// Core is the part of Execution Memory used for query processing
	// (e.g. join state).
	Core
	// Storage caches intermediate data partitions.
	Storage
	// Device is GPU memory (Equation 15), present only with accelerators.
	Device
	// Driver is the driver's memory, which holds broadcast builds and
	// collected results (crash scenario 4); it is no worker's region.
	Driver
)

var regionNames = map[Region]string{
	OSReserved:  "os-reserved",
	DLExecution: "dl-execution",
	User:        "user",
	Core:        "core",
	Storage:     "storage",
	Device:      "device",
	Driver:      "driver",
}

// String implements fmt.Stringer.
func (r Region) String() string {
	if n, ok := regionNames[r]; ok {
		return n
	}
	return fmt.Sprintf("region(%d)", int(r))
}

// CrashScenario enumerates the memory-related workload crash scenarios of
// Section 4.1.
type CrashScenario int

// Crash scenarios (Section 4.1, "Memory-related Crash and Inefficiency
// Scenarios").
const (
	// DLBlowup: DL Execution Memory blowups — per-thread CNN replicas
	// exceed the memory left outside the PD system; the OS kills the
	// application (scenario 1).
	DLBlowup CrashScenario = iota
	// InsufficientUser: UDF threads' CNNs, downstream models, and feature
	// TensorLists exceed User Memory (scenario 2).
	InsufficientUser
	// LargePartition: a data partition too big for the available User and
	// Core Execution Memory during join/UDF processing (scenario 3).
	LargePartition
	// DriverOOM: the driver cannot hold the serialized CNN broadcast or
	// collected partial results (scenario 4).
	DriverOOM
	// StorageExhausted: intermediate data exceeds total memory on a
	// memory-only system with no disk spill (the Ignite Eager crash in
	// Section 5.1).
	StorageExhausted
	// DeviceExhausted: CNN replicas exceed GPU memory (Equation 15).
	DeviceExhausted
)

var scenarioNames = map[CrashScenario]string{
	DLBlowup:         "dl-execution-blowup",
	InsufficientUser: "insufficient-user-memory",
	LargePartition:   "oversized-partition",
	DriverOOM:        "driver-oom",
	StorageExhausted: "storage-exhausted",
	DeviceExhausted:  "gpu-memory-exhausted",
}

// String implements fmt.Stringer.
func (s CrashScenario) String() string {
	if n, ok := scenarioNames[s]; ok {
		return n
	}
	return fmt.Sprintf("scenario(%d)", int(s))
}

// OOMError is a memory-related workload crash. It is an ordinary error —
// never a panic — so harnesses can render it as the paper's "×".
type OOMError struct {
	Region   Region
	Scenario CrashScenario
	// Need and Avail are the requested and available bytes at failure.
	Need, Avail int64
	// Detail explains the failing allocation.
	Detail string
}

// Error implements error.
func (e *OOMError) Error() string {
	return fmt.Sprintf("memory: %s in %s region: need %s, available %s (%s)",
		e.Scenario, e.Region, FormatBytes(e.Need), FormatBytes(e.Avail), e.Detail)
}

// Describe sets the Detail of the OOM crash err is (or wraps) and returns
// err, so a caller on a hot path charges with an empty detail and formats the
// explanation only once the charge is refused:
//
//	if err := pool.Alloc(n, ""); err != nil {
//		return memory.Describe(err, fmt.Sprintf("input of partition %d", part))
//	}
func Describe(err error, detail string) error {
	if oom, ok := IsOOM(err); ok {
		oom.Detail = detail
	}
	return err
}

// IsOOM reports whether err is (or wraps) a memory crash, returning it.
func IsOOM(err error) (*OOMError, bool) {
	var oom *OOMError
	if errors.As(err, &oom) {
		return oom, true
	}
	return nil, false
}

// Apportionment fixes the size of every region on one worker — the memory
// variables the Vista optimizer sets (Table 1(B)).
type Apportionment struct {
	OSReserved  int64
	DLExecution int64
	User        int64
	Core        int64
	Storage     int64
}

// FormatBytes renders a byte count in human units.
func FormatBytes(b int64) string {
	const (
		kb = 1 << 10
		mb = 1 << 20
		gb = 1 << 30
	)
	switch {
	case b >= gb:
		return fmt.Sprintf("%.2f GB", float64(b)/gb)
	case b >= mb:
		return fmt.Sprintf("%.1f MB", float64(b)/mb)
	case b >= kb:
		return fmt.Sprintf("%.1f KB", float64(b)/kb)
	default:
		return fmt.Sprintf("%d B", b)
	}
}

// GB converts gigabytes to bytes.
func GB(g float64) int64 { return int64(g * (1 << 30)) }

// MB converts megabytes to bytes.
func MB(m float64) int64 { return int64(m * (1 << 20)) }
