// Portfolio exposure: selective private function evaluation with secret
// WEIGHTS rather than a 0/1 selection — the generalization the paper
// sketches ("integer weights in some larger range could be used to produce
// a weighted sum, which in turn could be used for a weighted average").
//
// A data vendor holds per-asset risk scores. A fund wants its portfolio's
// total risk exposure Σ w_i·r_i and its holdings-weighted mean risk
// Σ w_i·r_i / Σ w_i, where the weights w_i — its holdings — are the fund's
// most sensitive secret. The fund uploads E(w_i) for every asset once
// (selectedsum.PackedSelectionSource); the vendor folds that one vector
// against its score column and its constant-1 column and replies with both
// sums. The vendor sees only Paillier ciphertexts; the fund learns only the
// two aggregates.
//
// The same query over several vendors, each serving a shard of the assets
// behind one aggregator, is examples/cluster.
//
// Run it:
//
//	go run ./examples/portfolio
package main

import (
	"crypto/rand"
	"fmt"
	"log"
	"math/big"
	mrand "math/rand"
	"net"

	"privstats/internal/database"
	"privstats/internal/paillier"
	"privstats/internal/selectedsum"
	"privstats/internal/wire"
)

func main() {
	const assets = 4_000
	rng := mrand.New(mrand.NewSource(11))

	// The vendor's risk scores (basis points).
	scores := make([]uint32, assets)
	for i := range scores {
		scores[i] = uint32(10 + rng.Intn(500))
	}
	vendor := database.New(scores)

	// The fund's secret holdings: a sparse weight vector (shares held). The
	// held positions are the selection; each carries its share count.
	held, err := database.NewSelection(assets)
	if err != nil {
		log.Fatal(err)
	}
	weights := make([]*big.Int, assets)
	for i := range weights {
		if rng.Intn(40) == 0 { // ~2.5% of assets held
			weights[i] = big.NewInt(int64(1 + rng.Intn(10_000)))
			held.Set(i)
		}
	}

	key, err := paillier.KeyGen(rand.Reader, 512)
	if err != nil {
		log.Fatal(err)
	}
	sk := paillier.SchemeKey{SK: key}

	// One session over an in-process pipe: the vendor serves its table, the
	// fund uploads its weighted vector and asks for two folds.
	a, b := net.Pipe()
	fund, server := wire.NewConn(a), wire.NewConn(b)
	served := make(chan error, 1)
	go func() {
		served <- selectedsum.ServeSource(server, vendor, nil)
		server.Close()
	}()
	vec := selectedsum.PackedSelectionSource(sk, held, func(i int) *big.Int { return weights[i] }, nil)
	sums, err := selectedsum.QueryVector(fund, sk, vec, 500, wire.ColValue|wire.ColOnes)
	fund.Close()
	if err != nil {
		log.Fatal(err)
	}
	if err := <-served; err != nil {
		log.Fatal(err)
	}
	exposure, totalWeight := sums[0], sums[1]
	avg := new(big.Rat).SetFrac(exposure, totalWeight)
	avgF, _ := avg.Float64()
	fmt.Printf("assets: %d, privately held positions: %d\n", assets, held.Count())
	fmt.Printf("total risk exposure Σ w·r: %v\n", exposure)
	fmt.Printf("holdings-weighted mean risk: %.2f bp\n", avgF)

	// Oracle check (possible only because this example owns both sides).
	wantExposure, wantWeight := new(big.Int), new(big.Int)
	for _, i := range held.Indices() {
		wantExposure.Add(wantExposure, new(big.Int).Mul(weights[i], big.NewInt(int64(scores[i]))))
		wantWeight.Add(wantWeight, weights[i])
	}
	wantAvg := new(big.Rat).SetFrac(wantExposure, wantWeight)
	if exposure.Cmp(wantExposure) != 0 || avg.Cmp(wantAvg) != 0 {
		log.Fatalf("oracle mismatch: exposure %v mean %s, want %v mean %s",
			exposure, avg.RatString(), wantExposure, wantAvg.RatString())
	}
	fmt.Println("oracle check: weighted sum and weighted mean exact ✓")
}
