// Streaming collection: the paper's future-work direction (§7) of answering
// queries over data streams with low-dimensional grids.
//
// Batches of fresh users arrive over time and the underlying population
// drifts (a promotion shifts loan amounts upward halfway through). Each
// batch runs one full ε-LDP FELIP round and is archived as one round; the
// archive keeps the newest rounds and answers the same query per round,
// over every retained round, and with exponential decay toward the present —
// showing how decay tracks the drift while the plain horizon average lags.
//
// Run with: go run ./examples/stream
package main

import (
	"fmt"
	"log"
	"os"

	"felip/internal/archive"
	"felip/internal/core"
	"felip/internal/dataset"
	"felip/internal/fo"
	"felip/internal/query"
)

func main() {
	schema := dataset.MixedSchema(2, 64, 1, 4)
	const batchSize = 40_000

	dir, err := os.MkdirTemp("", "felip-stream-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	store, err := archive.Open(dir, archive.Options{RetainRounds: 8})
	if err != nil {
		log.Fatal(err)
	}
	opts := core.Options{Strategy: core.OUG, Epsilon: 1.0}
	seeds := fo.NewRand(9) // one collection seed per batch

	// "High amount" share: amount (attr 0) in the upper half.
	q := query.Query{Preds: []query.Predicate{
		query.NewRange(0, 32, 63),
		query.NewRange(1, 0, 63), // rate: any
	}}

	fmt.Println("streaming example: 6 batches of 40k users, drift after batch 3")
	fmt.Printf("%-8s %10s %10s %10s %10s\n", "window", "exact", "window", "horizon", "decayed")

	for w := 0; w < 6; w++ {
		// The population drifts: from batch 3 on, amounts shift upward.
		gen := dataset.NewNormal()
		batch := gen.Generate(schema, batchSize, uint64(100+w))
		if w >= 3 {
			// Shift attr 0 upward by a quarter domain to simulate the drift.
			shifted := dataset.New(schema, batchSize)
			for row := 0; row < batchSize; row++ {
				shifted.SetValue(row, 0, batch.Value(row, 0)+16)
				shifted.SetValue(row, 1, batch.Value(row, 1))
				shifted.SetValue(row, 2, batch.Value(row, 2))
			}
			batch = shifted
		}
		opts.Seed = seeds.Uint64()
		agg, err := core.Collect(batch, opts)
		if err != nil {
			log.Fatal(err)
		}
		round := w + 1
		if err := store.WriteRound(archive.RoundSnapshot{
			Round: round, Reports: agg.N(), Aggregate: agg.Snapshot(),
		}); err != nil {
			log.Fatal(err)
		}

		cols := make([][]uint16, schema.Len())
		for i := range cols {
			cols[i] = batch.Col(i)
		}
		truth := query.Evaluate(q, cols)
		eng, err := store.Engine(round)
		if err != nil {
			log.Fatal(err)
		}
		latest, err := eng.Answer(q)
		if err != nil {
			log.Fatal(err)
		}
		horizon, err := store.AnswerRange(q, 1, 0)
		if err != nil {
			log.Fatal(err)
		}
		decayed, err := store.AnswerDecayed(q, 1, 0, 1)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8d %10.4f %10.4f %10.4f %10.4f\n", w, truth, latest, horizon, decayed)
	}

	fmt.Println("\nafter the drift the decayed estimate tracks the new regime while")
	fmt.Println("the plain horizon average still mixes in the old one.")
}
