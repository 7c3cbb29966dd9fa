// Package ml implements the downstream ML routines M of the feature-transfer
// workload (Section 3.2, step 4): distributed elastic-net logistic
// regression (the paper's main M), a CART decision tree, and a multi-layer
// perceptron, plus train/test evaluation with F1 scoring (Section 5.2).
//
// Training consumes dataflow tables whose rows carry [structured features,
// CNN feature vectors]; StructuredPlusFeature builds the extractor that
// concatenates them for one emitted layer. A FeatureFunc is append-style: it
// builds x in the dst buffer its caller lends (dst[:0], grown when too
// small), so a caller that extracts row after row reuses one buffer; a func
// may instead return memory it does not own, such as the row's own
// structured slice, only if it never writes dst. Logistic regression trains
// distributed (gradient aggregation via ForEachPartition, so its working
// set is charged to the engine's pools); the tree and MLP collect to the
// driver first, reproducing the paper's driver-memory pressure for
// collect-style trainers. IsTestID provides the deterministic train/test
// split shared by every trainer: TrainLogReg reads it as a keep predicate
// over the table, and SplitByID applies it to collected rows, so the split
// never copies a table.
package ml
