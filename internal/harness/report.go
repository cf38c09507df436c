package harness

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"unicode/utf8"

	"uno/internal/netsim"
)

// Table is a printable result table.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// AddRow appends a row, formatting each cell with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmtFloat(v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

func fmtFloat(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 1000:
		return fmt.Sprintf("%.0f", v)
	case v >= 10:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = utf8.RuneCountInString(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if n := utf8.RuneCountInString(c); i < len(widths) && n > widths[i] {
				widths[i] = n
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if pad := widths[min(i, len(widths)-1)] - utf8.RuneCountInString(c); pad > 0 {
				b.WriteString(strings.Repeat(" ", pad))
			}
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

// CSV renders the table as RFC-4180-ish CSV (cells containing commas or
// quotes are quoted).
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				b.WriteByte('"')
				b.WriteString(strings.ReplaceAll(c, `"`, `""`))
				b.WriteByte('"')
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// Report is one experiment's output.
type Report struct {
	ID     string
	Title  string
	Tables []*Table
	Notes  []string
	// Digest is the experiment's determinism fingerprint: the FNV-1a fold,
	// in job order, of every constituent simulation's run digest. Two
	// invocations with the same Config must produce the same digest
	// regardless of Config.Parallel. Zero means the experiment ran no
	// packet-level simulations (e.g. the analytic fig1).
	Digest uint64
	// JSON, when non-nil, is a machine-readable emit of the report's raw
	// results (the tournament's per-cell records); WriteArtifacts saves it
	// alongside the CSV tables.
	JSON []byte

	ndigests int
}

// FoldDigest folds one simulation run's fingerprint into the report digest.
// Callers must fold in a deterministic order (job order, never completion
// order).
func (r *Report) FoldDigest(d uint64) {
	if r.ndigests == 0 {
		r.Digest = netsim.DigestSeed
	}
	r.Digest = netsim.DigestFold(r.Digest, d)
	r.ndigests++
}

// NewTable appends and returns a fresh table.
func (r *Report) NewTable(title string, header ...string) *Table {
	t := &Table{Title: title, Header: header}
	r.Tables = append(r.Tables, t)
	return t
}

// Note appends a free-form note line.
func (r *Report) Note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// WriteArtifacts writes the report's tables as CSV files plus the rendered
// text under dir/<id>/ — the layout of the paper artifact's
// artifact_results/ folders. It returns the file paths written.
func (r *Report) WriteArtifacts(dir string) ([]string, error) {
	sub := filepath.Join(dir, r.ID)
	if err := os.MkdirAll(sub, 0o755); err != nil {
		return nil, err
	}
	var paths []string
	for i, t := range r.Tables {
		name := fmt.Sprintf("table%d.csv", i+1)
		p := filepath.Join(sub, name)
		if err := os.WriteFile(p, []byte(t.CSV()), 0o644); err != nil {
			return nil, err
		}
		paths = append(paths, p)
	}
	if r.JSON != nil {
		p := filepath.Join(sub, "report.json")
		if err := os.WriteFile(p, r.JSON, 0o644); err != nil {
			return nil, err
		}
		paths = append(paths, p)
	}
	p := filepath.Join(sub, "report.txt")
	if err := os.WriteFile(p, []byte(r.String()), 0o644); err != nil {
		return nil, err
	}
	return append(paths, p), nil
}

// String renders the whole report.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	for _, t := range r.Tables {
		b.WriteByte('\n')
		b.WriteString(t.String())
	}
	if len(r.Notes) > 0 {
		b.WriteByte('\n')
		for _, n := range r.Notes {
			fmt.Fprintf(&b, "note: %s\n", n)
		}
	}
	if r.Digest != 0 {
		fmt.Fprintf(&b, "\ndigest: %016x (%d runs)\n", r.Digest, r.ndigests)
	}
	return b.String()
}

// MaxScale is the largest Config.Scale every experiment can represent. The
// registry's largest flows are Fig 3's, 128 MiB × scale; at the Sim's 4096-
// byte MTU with RS(8,2) parity an inter-DC one is 320 packets per MiB, and
// the transport numbers a flow's packets in 32 bits: 2³² / (128 × 320) is
// 104,857. Every simulated horizon (at most 400 ms × scale) stays far
// inside eventq.Time at this bound.
const MaxScale = 100_000

// Config controls experiment scale, seeding, and fan-out.
type Config struct {
	// Scale stretches the default (quick) experiment toward paper scale:
	// 1 = quick defaults, larger values add flows/duration/reruns, up to
	// MaxScale. Zero or less means 1.
	Scale float64
	// Seed is the base random seed.
	Seed uint64
	// Parallel bounds the number of independent simulation runs executed
	// concurrently by the multi-rerun experiments (see RunParallel). 0
	// means GOMAXPROCS; 1 forces serial execution. Results are identical
	// for every value.
	Parallel int
	// Shards is the partition of every Sim the experiment builds (see
	// NewSimShards): 0 keeps the whole fabric on one shard, N >= 1 gives
	// each datacenter its own shard run by N workers. Reports are identical
	// for every N >= 1.
	Shards int
}

// withDefaults normalizes the config.
func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	return c
}

// scaled returns max(1, round(base×scale)).
func (c Config) scaled(base int) int {
	n := int(float64(base)*c.Scale + 0.5)
	if n < 1 {
		n = 1
	}
	return n
}

// Experiment is one reproducible figure or table of the paper.
type Experiment struct {
	ID    string
	Title string
	Run   func(cfg Config) *Report
}

// Registry returns all experiments keyed by ID, in paper order.
func Registry() []Experiment {
	return []Experiment{
		{ID: "fig1", Title: "Latency- vs throughput-bound messages (analytic)", Run: Fig1},
		{ID: "fig3", Title: "Fairness convergence under mixed incast", Run: Fig3},
		{ID: "fig4", Title: "Phantom queues: queue occupancy and RPC FCTs", Run: Fig4},
		{ID: "table1", Title: "Correlated packet-loss statistics (Azure pairs)", Run: Table1},
		{ID: "fig8", Title: "Incast FCTs and rate convergence", Run: Fig8},
		{ID: "fig9", Title: "Permutation workload", Run: Fig9},
		{ID: "fig10", Title: "Realistic workload vs load", Run: Fig10},
		{ID: "fig11", Title: "FCT slowdown vs inter/intra RTT ratio", Run: Fig11},
		{ID: "fig12", Title: "Heterogeneous queue capacities", Run: Fig12},
		{ID: "fig13a", Title: "Border-link failure (UnoRC variants)", Run: Fig13A},
		{ID: "fig13b", Title: "Correlated random loss (UnoRC variants)", Run: Fig13B},
		{ID: "fig13c", Title: "Inter-DC Allreduce under failures", Run: Fig13C},
		{ID: "ext-trim", Title: "Extension: packet trimming vs erasure coding (§6)", Run: ExtTrim},
		{ID: "ext-annulus", Title: "Extension: Annulus near-source loop (footnote 4)", Run: ExtAnnulus},
		{ID: "tournament", Title: "CC coexistence tournament: pairwise matrix on shared bottlenecks", Run: Tournament},
	}
}

// Find returns the experiment with the given id.
func Find(id string) (Experiment, bool) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
