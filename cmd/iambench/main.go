// Command iambench regenerates the paper's tables and figures, its
// design ablations and its closed-form model on the virtual-disk harness.
//
// Usage:
//
//	iambench                         # run everything at medium scale
//	iambench -experiment table4      # one experiment
//	iambench -scale small            # quicker, smaller datasets
//	iambench -list                   # list experiment ids
//
// Experiment ids: table1 table2 table3 table4 table5 figure6
// figure7a figure7b figure7c figure8 figure9 figure10 tuning
// openloop kvsep ablations theory
//
// Every experiment runs its background work inline on the virtual-disk
// harness and repeats to the byte: `go test ./internal/harness` compares
// each table with its golden under testdata/small.  Only the "finished
// in" lines read the wall clock.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"iamdb/internal/harness"
)

func main() {
	var (
		expID = flag.String("experiment", "", "experiment id (default: all)")
		scale = flag.String("scale", "medium", "small | medium | full")
		list  = flag.Bool("list", false, "list experiments and exit")
	)
	flag.Parse()

	if *list {
		for _, e := range harness.Experiments {
			fmt.Printf("%-9s  %s\n", e.ID, e.Desc)
		}
		return
	}

	var s harness.Scale
	switch *scale {
	case "small":
		s = harness.SmallScale
	case "medium":
		s = harness.MediumScale
	case "full":
		// The paper's full 8192x dataset:Ct ratio for the 1T class;
		// expect long runtimes and gigabytes of memory.
		s = harness.MediumScale
		s.Name = "full"
		s.Records1T = 8192 * uint64(s.Ct) / uint64(s.ValueSize)
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scale)
		os.Exit(2)
	}

	exps := harness.Experiments
	if *expID != "" {
		// The id list is in presentation order, not sorted: scan.
		idx := -1
		for i, e := range exps {
			if e.ID == *expID {
				idx = i
				break
			}
		}
		if idx < 0 {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", *expID)
			os.Exit(2)
		}
		exps = exps[idx : idx+1]
	}

	fmt.Printf("iambench: scale=%s (100G-class=%d records, 1T-class=%d records, Ct=%dKiB)\n\n",
		s.Name, s.Records100G, s.Records1T, s.Ct/1024)
	for _, e := range exps {
		start := time.Now()
		tbl, err := e.Run(s)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Println(tbl.Format())
		fmt.Printf("(%s finished in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
}
