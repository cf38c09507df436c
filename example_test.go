package uno_test

import (
	"fmt"
	"strings"

	"uno"
)

// Example demonstrates the minimal simulation loop: build the paper's
// dual-datacenter fabric, run a transfer under the full Uno stack, and
// read the result.
func Example() {
	sim := uno.NewSim(42, uno.DefaultTopology(), uno.UnoStack())
	sim.Schedule([]uno.FlowSpec{{Src: 0, Dst: 200, Size: 1 << 20}}) // DC0 → DC1
	sim.Run(100 * uno.Millisecond)
	// Only a finished flow leaves a result.
	rs := sim.Results()
	fmt.Println("completed:", len(rs), "inter-DC:", rs[0].Spec.InterDC)
	// Output:
	// completed: 1 inter-DC: true
}

// ExampleCodec shows the real Reed-Solomon codec behind UnoRC's (8, 2)
// blocks: any two of the ten shards may be lost.
func ExampleCodec() {
	codec, _ := uno.NewCodec(8, 2)
	shards := codec.Split([]byte(strings.Repeat("gradient bytes ", 100)))
	_ = codec.Encode(shards)
	shards[0], shards[9] = nil, nil // lose a data and a parity shard
	err := codec.Reconstruct(shards)
	msg, _ := codec.Join(shards, 15*100)
	fmt.Println("recovered:", err == nil && strings.HasPrefix(string(msg), "gradient bytes"))
	// Output:
	// recovered: true
}

// ExampleParseCDF loads a flow-size distribution in the artifact's CDF
// text format.
func ExampleParseCDF() {
	const file = "10000 0.3\n1000000 0.9\n30000000 1\n"
	cdf, err := uno.ParseCDF("custom", strings.NewReader(file))
	fmt.Println("parsed:", err == nil, "knots:", len(cdf.Points))
	// Output:
	// parsed: true knots: 4
}

// ExampleRunExperiment regenerates one of the paper's figures
// programmatically.
func ExampleRunExperiment() {
	report, ok := uno.RunExperiment("table1", uno.ExperimentConfig{Scale: 0.01, Seed: 1})
	fmt.Println("ran:", ok, "tables:", len(report.Tables))
	// Output:
	// ran: true tables: 1
}
