// Package net is the sharded backend: a coordinator owning the central
// RoundDriver plus K workers — spawned in-process over net.Pipe, or
// attached over TCP/unix sockets via cmd/emworker — speaking the
// internal/wire codec over length-prefixed frames
// (wire.ReadFrame/WriteFrame). Both placements run the same protocol
// under the same supervision.
//
// Neighborhood i belongs to partition i mod K. Workers hold private
// evidence replicas and evaluate their partition of each round's active
// set against the round-start snapshot; the coordinator merges batches
// centrally, owns all run state, and ships each round's evidence delta
// back as the next assignment's catch-up. Supervision: per-round
// deadlines and worker heartbeats, bounded retry with exponential
// backoff and jitter on transient transport errors, and partition
// reassignment — a dead or deadline-breaching worker degrades throughput
// instead of failing the run. A round commits only when every
// partition's ShardBatch has been accounted exactly once; assignments
// are epoch-tagged, so a zombie worker's late batch is discarded, never
// double-applied. Because each job is a deterministic function of
// (neighborhood, round-start snapshot) and the reduce consumes jobs in
// active-set order, the output is byte-identical to the pool backend no
// matter which worker evaluates what, or how many times (Theorems 2
// and 4).
package net
