// Spot instances: run GNMF on the engine under spot-market price traces
// (an eviction kills the program, which resumes from its newest
// checkpoint), sweep bids, and compare the expected bill against
// on-demand pricing — the deployment question the paper's follow-on work
// tackles.
//
//	go run ./examples/spot
package main

import (
	"fmt"
	"log"

	"cumulon/internal/cloud"
	"cumulon/internal/core"
	"cumulon/internal/plan"
	"cumulon/internal/spot"
	"cumulon/internal/workloads"
)

func main() {
	// First the on-demand baseline: run GNMF (virtually) on 16 x m1.large.
	sess := core.NewSession(42)
	wl := workloads.GNMF(200000, 100000, 10, 2, 0.05)
	mt, err := cloud.TypeByName("m1.large")
	check(err)
	cl, err := cloud.NewCluster(mt, 16, 2)
	check(err)
	cfg := plan.Config{TileSize: 2048, Densities: wl.Densities}
	opts := core.ExecOptions{Cluster: cl}
	res, err := sess.Run(wl.Prog, cfg, opts)
	check(err)
	onDemand := res.CostDollars
	fmt.Printf("workload: %s, %d jobs, %.1fs on %s\n",
		wl.Name, len(res.Metrics.Jobs), res.Metrics.TotalSeconds, cl)
	fmt.Printf("on-demand bill: $%.2f\n\n", onDemand)

	// Sweep bids on the spot market.
	market := spot.DefaultMarket(mt.PricePerHour)
	horizon := res.Metrics.TotalSeconds * 6
	best, ok, sweep, err := spot.OptimizeBid(sess, wl.Prog, cfg, opts, market, 50, 42, horizon, 0.9)
	check(err)
	fmt.Printf("%-10s %-12s %-16s %s\n", "bid $/h", "finish prob", "expected cost $", "mean evictions")
	for _, e := range sweep {
		fmt.Printf("%-10.3f %-12.2f %-16.2f %.2f\n",
			e.Bid, e.FinishProb, e.ExpectedCost, e.MeanEvicts)
	}
	if !ok {
		fmt.Println("\nno bid met the 90% completion target within the horizon")
		return
	}
	fmt.Printf("\nbest bid: $%.3f/h — expected cost $%.2f (%.0f%% of on-demand), finish prob %.0f%%\n",
		best.Bid, best.ExpectedCost, 100*best.ExpectedCost/onDemand, 100*best.FinishProb)
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
