// Profiling: compare all eight discovery algorithms on one of the
// evaluation dataset analogs, the workflow behind the paper's Table 1.
// HyFD and the baselines must agree on the FD set; their runtimes show the
// row-/column-efficiency trade-off the paper is built on.
//
// Run with:
//
//	go run ./examples/profiling            # ncvoter analog, 19 columns
//	go run ./examples/profiling hepatitis  # wide-and-short: watch TANE suffer
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"

	"hyfd"
	"hyfd/internal/harness"
)

func main() {
	name := "ncvoter"
	if len(os.Args) > 1 {
		name = os.Args[1]
	}
	rel, err := harness.Materialize(harness.Spec{Dataset: name, Rows: 1000})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset: %s (%d rows, %d columns)\n\n", rel.Name, rel.NumRows(), rel.NumCols())
	fmt.Printf("%-12s %10s %8s\n", "algorithm", "runtime", "FDs")
	fmt.Printf("%-12s %10s %8s\n", "---------", "-------", "---")

	var reference *hyfd.Result
	for _, alg := range hyfd.Algorithms() {
		start := time.Now()
		res, err := hyfd.Run(context.Background(), hyfd.Request{Relation: rel, Algorithm: alg})
		elapsed := time.Since(start)
		if err != nil {
			log.Fatalf("%s: %v", alg, err)
		}
		fmt.Printf("%-12s %10s %8d\n", alg, elapsed.Round(time.Millisecond), len(res.FDs))
		if reference == nil {
			reference = res
		} else if !res.Set.Equal(reference.Set) {
			log.Fatalf("%s disagrees with HyFD!", alg)
		}
	}
	fmt.Println("\nall algorithms returned the identical minimal FD set ✓")
}
