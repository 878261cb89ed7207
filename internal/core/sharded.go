package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/wire"
)

// ShardedBackend executes rounds on K partitioned shards — the paper's
// distributed map/reduce deployment (§6.3) in miniature, and the
// stepping stone to multi-process workers. The cover's neighborhoods are
// partitioned statically across shards (shard of neighborhood i = i mod
// K); each shard evaluates its share of every round's active set against
// a PRIVATE evidence replica and an immutable ground-model snapshot (the
// matcher, which is never mutated during a run). Shards share no mutable
// state whatsoever: all cross-shard communication is serialized through
// the internal/wire codec — each shard ships its round results to the
// reducer as an encoded ShardBatch, and receives the round's merged
// evidence back as an encoded PairKey-ordered Delta batch, which it
// decodes and applies to its replica. Consistency (Theorems 2 and 4)
// makes the output byte-identical to the pool backend for every K.
//
// A replica is an Evidence in the plan's form, cloned from the driver's
// at the start (a word copy under a dense matcher) and advanced by
// AddKey; what crosses the codec is packed pair keys in ascending order
// either way, so the bytes do not depend on the matcher's form.
type ShardedBackend struct {
	// Shards is the partition count K. Values < 1 mean one shard per CPU.
	Shards int

	// Format selects the wire codec for inter-shard traffic (default
	// compact binary). Outputs are identical either way; the knob exists
	// for debugging and codec cross-checks.
	Format wire.Format
}

// shardCount normalizes the configured partition count.
func (b *ShardedBackend) shardCount() int {
	if b.Shards < 1 {
		return runtime.NumCPU()
	}
	return b.Shards
}

// shard is one partition: a private evidence replica plus the round
// scratch. Nothing in here is ever touched by another goroutine while
// the shard works; the replica advances only by applying decoded Delta
// batches.
type shard struct {
	id       int
	evidence *Evidence // private replica of M+; nil for NO-MP
}

// runRound evaluates the shard's share of the active set (ids, in
// ascending order) and returns the serialized batch.
func (s *shard) runRound(plan *RoundPlan, round int, ids []int32, allowSkip bool, format wire.Format) ([]byte, error) {
	batch := &wire.ShardBatch{Round: round, Shard: s.id, Jobs: make([]wire.Job, len(ids))}
	for i, id := range ids {
		j := plan.Evaluate(id, s.evidence, allowSkip)
		batch.Jobs[i] = plan.JobToWire(&j)
	}
	return batch.Marshal(format)
}

// apply merges a decoded evidence delta into the replica.
func (s *shard) apply(d *wire.Delta) {
	for _, k := range d.Keys {
		s.evidence.AddKey(PairKey(k))
	}
}

// RunRounds implements Backend.
func (b *ShardedBackend) RunRounds(ctx context.Context, plan *RoundPlan, d *RoundDriver) error {
	k := b.shardCount()

	// Seed each replica from the driver's evidence (non-empty only when
	// resuming a checkpoint trail mid-run). NO-MP runs evidence-free.
	shards := make([]*shard, k)
	for i := range shards {
		shards[i] = &shard{id: i}
		if plan.Exchange {
			shards[i].evidence = d.Snapshot().Clone()
		}
	}

	for !d.Done() {
		if err := ctx.Err(); err != nil {
			return err
		}
		active := d.Active()
		round := d.Round()
		allowSkip := d.AllowSkip()

		// Partition the active set. The split is static and deterministic
		// (id mod K), so the same run lands on the same shards every time.
		parts := make([][]int32, k)
		for _, id := range active {
			s := int(id) % k
			parts[s] = append(parts[s], id)
		}

		// Map: every shard evaluates its share concurrently against its
		// own replica and serializes the results.
		encoded := make([][]byte, k)
		errs := make([]error, k)
		var wg sync.WaitGroup
		for s := 0; s < k; s++ {
			if len(parts[s]) == 0 {
				continue
			}
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				if ctx.Err() != nil {
					errs[s] = ctx.Err()
					return
				}
				encoded[s], errs[s] = shards[s].runRound(plan, round, parts[s], allowSkip, b.Format)
			}(s)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		if err := ctx.Err(); err != nil {
			return err
		}

		// Decode the batches and reassemble the jobs in active-set order,
		// so the central reduce sees exactly what the pool backend would.
		// The partition was built by scanning active in order, so shard
		// s's batch lists its jobs in that same order — a per-shard
		// cursor re-walks it without any id→index map.
		batches := make([]*wire.ShardBatch, k)
		for s := 0; s < k; s++ {
			if encoded[s] == nil {
				continue
			}
			batch, err := wire.UnmarshalShardBatch(encoded[s])
			if err != nil {
				return fmt.Errorf("core: shard %d round %d batch: %w", s, round, err)
			}
			if batch.Round != round || batch.Shard != s || len(batch.Jobs) != len(parts[s]) {
				return fmt.Errorf("core: shard %d round %d returned a misrouted batch (round %d, shard %d, %d jobs for %d ids)",
					s, round, batch.Round, batch.Shard, len(batch.Jobs), len(parts[s]))
			}
			batches[s] = batch
		}
		jobs := make([]Job, len(active))
		cursor := make([]int, k)
		for i, id := range active {
			s := int(id) % k
			wj := &batches[s].Jobs[cursor[s]]
			cursor[s]++
			if wj.ID != id {
				return fmt.Errorf("core: shard %d round %d: job %d evaluates neighborhood %d, want %d",
					s, round, cursor[s]-1, wj.ID, id)
			}
			jobs[i] = plan.JobFromWire(wj)
		}

		// Reduce centrally, then broadcast the round's merged evidence
		// delta — the only thing shards ever learn from each other — as
		// one serialized batch that every shard decodes independently.
		if err := d.FinishRound(jobs); err != nil {
			return err
		}
		delta := d.RoundDelta()
		if plan.Exchange && !d.Done() && len(delta) > 0 {
			msg := &wire.Delta{Round: round, Keys: make([]uint64, len(delta))}
			for i, key := range delta {
				msg.Keys[i] = uint64(key)
			}
			enc, err := msg.Marshal(b.Format)
			if err != nil {
				return fmt.Errorf("core: encoding round %d delta: %w", round, err)
			}
			for _, s := range shards {
				dec, err := wire.UnmarshalDelta(enc)
				if err != nil {
					return fmt.Errorf("core: shard %d decoding round %d delta: %w", s.id, round, err)
				}
				s.apply(dec)
			}
		}
	}
	return nil
}

// JobToWire serializes one evaluation result for shipment to the
// central reducer. Exported so out-of-process workers (internal/net,
// cmd/emworker) ship exactly what the in-process sharded backend ships:
// the match set as ascending packed keys, whichever form the job holds
// it in.
func (p *RoundPlan) JobToWire(j *Job) wire.Job {
	w := wire.Job{
		ID:      j.id,
		Skipped: j.skipped,
		Active:  j.active,
		Calls:   j.calls,
		Dur:     int64(j.dur),
	}
	if n := len(j.ids) + len(j.keys); n > 0 {
		w.Matches = make([]uint64, 0, n)
		for _, id := range j.ids {
			w.Matches = append(w.Matches, uint64(p.table.pairs[id].Key()))
		}
		for _, k := range j.keys {
			w.Matches = append(w.Matches, uint64(k))
		}
	}
	w.Msgs = messagesToWire(j.msgs)
	return w
}

// JobFromWire reconstructs an evaluation result from the wire form,
// sorting its match keys into candidate ids and the rest.
func (p *RoundPlan) JobFromWire(w *wire.Job) Job {
	j := Job{
		id:      w.ID,
		skipped: w.Skipped,
		active:  w.Active,
		calls:   w.Calls,
		dur:     time.Duration(w.Dur),
	}
	if w.Skipped {
		return j
	}
	if p.dense != nil {
		j.ids = make([]int32, 0, len(w.Matches))
	} else {
		j.keys = make([]PairKey, 0, len(w.Matches))
	}
	from := 0 // the keys ascend, so the ids do
	for _, k := range w.Matches {
		if id, ok := p.table.FindFrom(from, PairKey(k)); ok {
			j.ids = append(j.ids, id)
			from = int(id) + 1
		} else {
			j.keys = append(j.keys, PairKey(k))
		}
	}
	j.msgs = messagesFromWire(w.Msgs)
	return j
}
