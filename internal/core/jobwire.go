package core

import (
	"time"

	"repro/internal/wire"
)

// JobToWire serializes one evaluation result for shipment to the central
// reducer: what a sharded worker (internal/net, in-process or
// cmd/emworker) returns in its ShardBatch. The match set travels as
// ascending packed keys, whichever form the job holds it in, so the bytes
// do not depend on the matcher's form.
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
