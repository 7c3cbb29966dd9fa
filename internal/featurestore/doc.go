// Package featurestore implements a content-addressed, disk-backed
// materialized store for CNN features, the cross-run reuse layer of the
// Vista reproduction (DeepLens-style): features computed by one run attach
// to later runs at store-I/O cost instead of CNN FLOPs.
//
// Entries are keyed by (model name, weights checksum, dataset checksum,
// layer index, kind) and the GEMM kernel body of the process — see Key — so
// a hit is exact by construction: the same model weights over the same rows,
// computed by the same arithmetic. Kinds distinguish emitted feature vectors
// (Feature) from staged raw carries (RawCarry), letting a warm run resume
// partial inference mid-chain. The store enforces a byte budget with LRU
// eviction. The directory is its only state: one file per entry, named by
// the key's content address, written by atomic write-and-rename (a Put's one
// commit point), charged its size, with its mtime as its recency. An entry's
// body is one dataflow.EncodeRows blob; an entry that does not decode, torn
// or written by an older version of the row codec, is a miss on its first
// Get, which deletes it. Fsck audits the directory against memory, and the
// faultinject sites declared in store.go let crash-consistency tests kill the
// process mid-Put.
package featurestore
