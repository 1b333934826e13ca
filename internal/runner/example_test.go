package runner_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fasttrack"
	"repro/internal/parsec"
	"repro/internal/runner"
)

// ExampleSweep shards one model's mode matrix across two workers. Cells
// come back in spec order with byte-identical results at any worker
// count, so the printed report never depends on scheduling.
func ExampleSweep() {
	b, err := parsec.ByName("vips")
	if err != nil {
		panic(err)
	}
	b = b.WithScale(0.1)

	var specs []runner.Spec
	for _, m := range []core.Mode{core.ModeNative, core.ModeFastTrackFull, core.ModeAikidoFastTrack} {
		specs = append(specs, runner.Spec{
			Label:  b.Name + "/" + m.String(),
			Source: b.Spec,
			Config: core.DefaultConfig(m),
		})
	}

	rep := runner.Sweep(specs, 2)
	if len(rep.Failed) > 0 {
		panic(rep.Failed[0])
	}
	native := rep.Cells[0].Res
	for _, c := range rep.Cells[1:] {
		fmt.Printf("%s: %.2fx vs native, %d races\n",
			c.Spec.Label, c.Res.Slowdown(native), len(fasttrack.RacesIn(c.Res.Findings)))
	}
	fmt.Println("cells swept:", len(rep.Cells))
	// Output:
	// vips/FastTrack: 51.00x vs native, 0 races
	// vips/Aikido-FastTrack: 40.85x vs native, 0 races
	// cells swept: 3
}
