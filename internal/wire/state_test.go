package wire

import (
	"encoding/json"
	"testing"

	"felip/internal/fo"
)

// addReport feeds one perturbed report for value v into the protocol's
// aggregators (the single-node reference and the owning shard).
func perturbInto(t *testing.T, proto fo.Protocol, eps float64, L, n, shards int, seed uint64) (single any, shardAggs []any) {
	t.Helper()
	r := fo.NewRand(seed)
	switch proto {
	case fo.GRR:
		c, err := fo.NewGRRClient(eps, L)
		if err != nil {
			t.Fatal(err)
		}
		s := fo.NewGRRAggregator(eps, L)
		aggs := make([]any, shards)
		for i := range aggs {
			aggs[i] = fo.NewGRRAggregator(eps, L)
		}
		for i := 0; i < n; i++ {
			rep, err := c.Perturb(i%L, r)
			if err != nil {
				t.Fatal(err)
			}
			s.Add(rep)
			aggs[i%shards].(*fo.GRRAggregator).Add(rep)
		}
		return s, aggs
	case fo.OLH:
		c, err := fo.NewOLHClient(eps, L)
		if err != nil {
			t.Fatal(err)
		}
		s := fo.NewOLHAggregator(eps, L)
		aggs := make([]any, shards)
		for i := range aggs {
			// Mix modes: even shards pre-fold (streaming), odd buffer.
			if i%2 == 0 {
				aggs[i] = fo.NewOLHAggregatorStreaming(eps, L)
			} else {
				aggs[i] = fo.NewOLHAggregator(eps, L)
			}
		}
		for i := 0; i < n; i++ {
			rep, err := c.Perturb(i%L, r)
			if err != nil {
				t.Fatal(err)
			}
			s.Add(rep)
			aggs[i%shards].(*fo.OLHAggregator).Add(rep)
		}
		return s, aggs
	case fo.OUE:
		c, err := fo.NewOUEClient(eps, L)
		if err != nil {
			t.Fatal(err)
		}
		s := fo.NewOUEAggregator(eps, L)
		aggs := make([]any, shards)
		for i := range aggs {
			aggs[i] = fo.NewOUEAggregator(eps, L)
		}
		for i := 0; i < n; i++ {
			rep, err := c.Perturb(i%L, r)
			if err != nil {
				t.Fatal(err)
			}
			s.Add(rep)
			aggs[i%shards].(*fo.OUEAggregator).Add(rep)
		}
		return s, aggs
	}
	t.Fatalf("unknown protocol %v", proto)
	return nil, nil
}

func export(t *testing.T, agg any) fo.PartialState {
	t.Helper()
	var st fo.PartialState
	var err error
	switch a := agg.(type) {
	case *fo.GRRAggregator:
		st, err = a.ExportState()
	case *fo.OLHAggregator:
		st, err = a.ExportState()
	case *fo.OUEAggregator:
		st, err = a.ExportState()
	}
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func estimates(t *testing.T, agg any) []float64 {
	t.Helper()
	switch a := agg.(type) {
	case *fo.GRRAggregator:
		return a.Estimates()
	case *fo.OLHAggregator:
		return a.Estimates()
	case *fo.OUEAggregator:
		return a.Estimates()
	}
	t.Fatalf("unknown aggregator %T", agg)
	return nil
}

// TestShardStateWireMergeEquivalence extends the TestOLHMergeEquivalence
// family through the wire: for all three frequency oracles, shard-split
// report streams exported as ShardStateMessages, JSON round-tripped,
// checksum-verified, decoded, and imported into a fresh aggregator must
// estimate bit-identically to single-node folding. This is the exactness
// property the sharded ingest cluster is built on.
func TestShardStateWireMergeEquivalence(t *testing.T) {
	const eps, L, n = 1.1, 64, 3000
	for _, proto := range []fo.Protocol{fo.GRR, fo.OLH, fo.OUE} {
		for _, shards := range []int{2, 3, 5} {
			single, shardAggs := perturbInto(t, proto, eps, L, n, shards, 43)
			want := estimates(t, single)

			var merged any
			switch proto {
			case fo.GRR:
				merged = fo.NewGRRAggregator(eps, L)
			case fo.OLH:
				merged = fo.NewOLHAggregator(eps, L)
			case fo.OUE:
				merged = fo.NewOUEAggregator(eps, L)
			}
			total := 0
			for i, sh := range shardAggs {
				msg := NewShardStateMessage("shard-0", 1, eps, fo.ModeFELIP, nil, 0, 0, []fo.PartialState{export(t, sh)})
				// The full wire path: marshal, unmarshal, verify, decode.
				raw, err := json.Marshal(msg)
				if err != nil {
					t.Fatal(err)
				}
				var back ShardStateMessage
				if err := json.Unmarshal(raw, &back); err != nil {
					t.Fatal(err)
				}
				if err := back.Verify(); err != nil {
					t.Fatalf("%v shard %d: %v", proto, i, err)
				}
				states, err := ParseGridStates(back.Grids, back.Epsilon)
				if err != nil {
					t.Fatal(err)
				}
				total += back.Reports
				var impErr error
				switch m := merged.(type) {
				case *fo.GRRAggregator:
					impErr = m.ImportState(states[0])
				case *fo.OLHAggregator:
					impErr = m.ImportState(states[0])
				case *fo.OUEAggregator:
					impErr = m.ImportState(states[0])
				}
				if impErr != nil {
					t.Fatalf("%v shard %d: import: %v", proto, i, impErr)
				}
			}
			if total != n {
				t.Fatalf("%v k=%d: wire states carry %d reports, want %d", proto, shards, total, n)
			}
			got := estimates(t, merged)
			for v := range got {
				if got[v] != want[v] {
					t.Fatalf("%v k=%d: estimate[%d] = %v, want %v (wire merge not exact)",
						proto, shards, v, got[v], want[v])
				}
			}
		}
	}
}

// TestShardStateChecksumCatchesCorruption: any mutation of a merge-relevant
// field must fail Verify — a damaged state must never reach the merge.
func TestShardStateChecksumCatchesCorruption(t *testing.T) {
	agg := fo.NewGRRAggregator(1.0, 8)
	agg.Add(3)
	agg.Add(5)
	st, err := agg.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	good := NewShardStateMessage("s1", 2, 1.0, fo.ModeFELIP, nil, 1, 0, []fo.PartialState{st})
	if err := good.Verify(); err != nil {
		t.Fatalf("freshly encoded state fails verify: %v", err)
	}

	for name, mutate := range map[string]func(m *ShardStateMessage){
		"count":    func(m *ShardStateMessage) { m.Grids[0].Counts[0]++ },
		"n":        func(m *ShardStateMessage) { m.Grids[0].N++ },
		"round":    func(m *ShardStateMessage) { m.Round = 3 },
		"epsilon":  func(m *ShardStateMessage) { m.Epsilon = 2 },
		"shard id": func(m *ShardStateMessage) { m.ShardID = "s2" },
		"reports":  func(m *ShardStateMessage) { m.Reports++ },
	} {
		bad := good
		bad.Grids = append([]GridStateDTO(nil), good.Grids...)
		bad.Grids[0].Counts = append([]int64(nil), good.Grids[0].Counts...)
		mutate(&bad)
		if err := bad.Verify(); err == nil {
			t.Errorf("mutated %s passes verify", name)
		}
	}

	// WALReplayed is operational metadata: a crashed-and-recovered shard
	// re-serves the same state with a different replay count, and that must
	// still verify.
	recovered := good
	recovered.WALReplayed = 1234
	if err := recovered.Verify(); err != nil {
		t.Errorf("WAL replay count change fails verify: %v", err)
	}

	// A version from the future must be refused before the checksum is even
	// consulted.
	future := good
	future.Version = ShardStateVersion + 1
	future.Checksum = future.Sum()
	if err := future.Verify(); err == nil {
		t.Error("future version accepted")
	}

	// Non-dense grids must be refused at decode.
	sparse := good
	sparse.Grids = append([]GridStateDTO(nil), good.Grids...)
	sparse.Grids[0].Group = 1
	if _, err := ParseGridStates(sparse.Grids, sparse.Epsilon); err == nil {
		t.Error("non-dense grid list accepted")
	}
}
