// Sharingprofile uses AikidoSD *without* any attached analysis — Aikido as
// a standalone shared-data profiler. The paper's framework is explicitly
// analysis-agnostic ("a new system and framework that enables the
// development of efficient and transparent analyses that operate on shared
// data", §1.1); the race detector is just the demonstration client. This
// example is a second client: it profiles each PARSEC model and reports
// where the sharing lives.
//
// Run with:
//
//	go run ./examples/sharingprofile
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/parsec"
	"repro/internal/workload"
)

func main() {
	fmt.Println("=== sharing profile of the PARSEC models (Aikido, no analysis attached) ===")
	fmt.Printf("%-15s %10s %10s %10s %12s %10s\n",
		"benchmark", "priv pages", "shrd pages", "faults", "shared acc", "shared %")
	for _, b := range parsec.All() {
		b = b.WithScale(0.5)
		prog, err := workload.Build(b.Spec)
		if err != nil {
			log.Fatal(err)
		}
		res, err := core.Run(prog, core.DefaultConfig(core.ModeAikidoFastTrack).WithAnalyses())
		if err != nil {
			log.Fatalf("%s: %v", b.Name, err)
		}
		fmt.Printf("%-15s %10d %10d %10d %12d %9.2f%%\n",
			b.Name, res.SD.PagesPrivate, res.SD.PagesShared,
			res.HV.AikidoFaults, res.SD.SharedPageAccesses,
			100*res.SharedAccessFraction())
	}
	fmt.Println()
	fmt.Println("Private pages ran at native speed; only the shared columns were")
	fmt.Println("observed through instrumentation. A tool author plugs a custom")
	fmt.Println("analysis into this stream by implementing sharing.Analysis.")
}
