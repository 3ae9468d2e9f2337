// Autotune: profile-guided rebalancing. The compile-time cost model
// balances partitions from the cores' nominal DMA rates (16/12/8
// bytes/cycle), but when the shared bus is the real bottleneck, every
// core gets roughly equal effective bandwidth and the analytic split
// overloads the nominally fast core. The schedule search measures each
// candidate on the simulator; one of its moves scales the partitioning
// weights by each core's observed bottleneck-engine occupancy — the
// paper's "profiling execution assists to detect unwanted idle times
// and fix the unbalance".
package main

import (
	"context"
	"fmt"
	"log"

	"repro/npu"
)

func main() {
	g := npu.BuildModel("MobileNetV2")

	// Saturate the bus: cores advertise 16/12/8 B/cycle but share 8.
	a := npu.Exynos2100Like()
	a.BusBytesPerCycle = 8
	fmt.Println("platform: per-core DMA 16/12/8 B/cycle, shared bus capped at 8 B/cycle")

	res, err := npu.Explore(context.Background(), g, a, npu.Stratum(), 1)
	if err != nil {
		log.Fatal(err)
	}

	clock := float64(a.ClockMHz)
	fmt.Printf("\nanalytic balance: %.1f us\n", res.BaselineCycles/clock)
	s := res.Best.Scale
	fmt.Printf("best:             %.1f us (%.2f%% better than the analytic balance)\n",
		res.BestCycles/clock, res.ImprovementPct)
	fmt.Printf("  core weight scales %.2f / %.2f / %.2f after %d evaluated schedules\n",
		s[0], s[1], s[2], res.Points)
	m, b, _ := res.Best.Overrides()
	fmt.Printf("  plus %d partitioning-method and %d stratum-boundary overrides\n", m, b)
	fmt.Println("note the direction: work shifts away from the nominally fast core")
	fmt.Println("(scale P0 < 1) toward the slow one (scale P2 > 1), because the")
	fmt.Println("saturated bus equalizes their effective bandwidth at runtime.")
}
