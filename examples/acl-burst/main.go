// acl-burst demonstrates the paper's Table 3 phenomenon on the
// middleblock Pre-Ingress ACL: precise update analysis slows as
// installed entries grow, while the overapproximating mode stays flat
// past the threshold — at the cost of reverting the table's verdicts to
// the general (unspecialized) model. In this engine a precise update
// costs the rank of the entry it writes, not the table: the ite chain
// below the entry is kept between updates, so the probe above every
// installed entry stays flat too and only the one under all of them
// grows.
package main

import (
	"fmt"
	"log"
	"time"

	goflay "repro"
	"repro/internal/progs"
)

func main() {
	p := progs.Middleblock()
	sizes := []int{1, 10, 100, 400}

	fmt.Println("installed | precise (head) | precise (deep) | overapproximate (threshold 100)")
	fmt.Println("----------+----------------+----------------+--------------------------------")
	for _, n := range sizes {
		head := measure(p, n, -1, false) // never overapproximate
		deep := measure(p, n, -1, true)
		approx := measure(p, n, 100, false) // the paper's threshold
		fmt.Printf("%9d | %-14v | %-14v | %v\n", n, head, deep, approx)
	}
	fmt.Println("\nprecise mode rebuilds the nested entry expression from the written")
	fmt.Println("entry up: one link for an entry above the installed ones (head), all")
	fmt.Println("of them for one below (deep); overapproximation assigns *any* to the")
	fmt.Println("table's placeholders once it crosses the threshold, making every")
	fmt.Println("update O(1) again (§4.1).")
}

// measure installs n Pre-Ingress ACL entries (ascending priorities) and
// times the analysis of one more update: above all of them, or — deep —
// below.
func measure(p *progs.Program, n, threshold int, deep bool) time.Duration {
	pipe, err := goflay.Open(p.Name, p.Source, goflay.WithOverapproxThreshold(threshold))
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if d := pipe.Apply(progs.MiddleblockACLEntry(i)); d.Kind == goflay.Rejected {
			log.Fatalf("entry %d rejected: %v", i, d.Err)
		}
	}
	probe := progs.MiddleblockACLEntry(n)
	if deep {
		probe.Entry.Priority = 1 // installed priorities start at 10
	}
	d := pipe.Apply(probe)
	if d.Kind == goflay.Rejected {
		log.Fatalf("probe update rejected: %v", d.Err)
	}
	return d.Elapsed.Round(10 * time.Microsecond)
}
