// Concurrent: run two networks at once on disjoint core subsets — the
// multi-DNN scenario that motivates multicore NPUs (e.g. a camera
// pipeline running detection and segmentation together). Compares
// core-partitioned concurrency against time-multiplexing the whole
// NPU.
package main

import (
	"fmt"
	"log"

	"repro/npu"
)

func main() {
	det := npu.BuildModel("MobileNetV2-SSD") // detection stream
	cls := npu.BuildModel("MobileNetV2")     // classification stream
	a := npu.Exynos2100Like()

	// Option A: spatial sharing — detector on 2 cores, classifier on 1.
	rep, err := npu.RunConcurrent(a, []npu.Workload{
		{Graph: det, Cores: []int{0, 1}, Options: npu.Stratum()},
		{Graph: cls, Cores: []int{2}, Options: npu.Stratum()},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("spatial sharing (SSD on P0+P1, classifier on P2):")
	fmt.Printf("  SSD done at %9.1f us\n", rep.PerWorkloadUS[0])
	fmt.Printf("  cls done at %9.1f us\n", rep.PerWorkloadUS[1])
	both := rep.Stats.TotalCycles / float64(a.ClockMHz)
	fmt.Printf("  both done at %8.1f us\n", both)

	// Option B: time multiplexing — each network gets all 3 cores,
	// one after the other: workloads listing the same cores run back
	// to back, the second starting when the first retires.
	all := []int{0, 1, 2}
	mux, err := npu.RunConcurrent(a, []npu.Workload{
		{Graph: det, Cores: all, Options: npu.Stratum()},
		{Graph: cls, Cores: all, Options: npu.Stratum()},
	})
	if err != nil {
		log.Fatal(err)
	}
	detUS, seq := mux.PerWorkloadUS[0], mux.PerWorkloadUS[1]
	fmt.Println("\ntime multiplexing (each network gets all 3 cores in turn):")
	fmt.Printf("  SSD alone %9.1f us, cls alone %8.1f us, total %8.1f us\n",
		detUS, seq-detUS, seq)

	fmt.Printf("\nconcurrent finishes %.1f%% %s than time multiplexing\n",
		100*abs(seq-both)/seq, cmp(both, seq))
	fmt.Println("(sharing avoids per-layer sync across all 3 cores, but the two")
	fmt.Println("streams contend for the memory bus — the trade-off is workload-dependent)")
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func cmp(a, b float64) string {
	if a < b {
		return "sooner"
	}
	return "later"
}
