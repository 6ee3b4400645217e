package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
)

// The catalog is the single registry of named experiments — every figure
// and extension study, addressable by id ("f3".."f6", "e1".."e15") — with
// uniform execution and rendering. cmd/ippsbench iterates it for the CLI
// and internal/serve exposes it over HTTP, so a new experiment registered
// here is immediately reachable from both.

// Format selects an experiment rendering.
type Format int

const (
	// Table is the human-readable text table matching the paper's layout.
	Table Format = iota
	// CSV is one comma-separated row per point.
	CSV
	// JSON is an array of row objects (same columns as the CSV).
	JSON
)

// ParseFormat parses "table", "csv" or "json".
func ParseFormat(s string) (Format, error) {
	switch s {
	case "table", "":
		return Table, nil
	case "csv":
		return CSV, nil
	case "json":
		return JSON, nil
	}
	return 0, fmt.Errorf("experiments: unknown format %q (want table, csv or json)", s)
}

func (f Format) String() string {
	switch f {
	case CSV:
		return "csv"
	case JSON:
		return "json"
	default:
		return "table"
	}
}

// ContentType is the HTTP media type of the rendering.
func (f Format) ContentType() string {
	switch f {
	case CSV:
		return "text/csv; charset=utf-8"
	case JSON:
		return "application/json"
	default:
		return "text/plain; charset=utf-8"
	}
}

// CatalogEntry is one named experiment.
type CatalogEntry struct {
	// ID is the canonical short id ("f3", "e6").
	ID string
	// Title is the one-line description shown by listings.
	Title string
	// Run executes the experiment from the given base config and renders
	// it in the requested format. Cancellation arrives via opts.Ctx.
	Run func(base core.Config, format Format, opts engine.Options) (string, error)
}

// entry builds a catalog entry from an experiment's driver and its view.
func entry[T any](id, title string, run func(core.Config, ...engine.Options) (T, error), v view[T]) CatalogEntry {
	return CatalogEntry{ID: id, Title: title, Run: func(base core.Config, format Format, opts engine.Options) (string, error) {
		x, err := run(base, opts)
		if err != nil {
			return "", err
		}
		return v.render(x, format), nil
	}}
}

var catalog = []CatalogEntry{
	entry("f3", "Figure 3: matmul, fixed architecture", Figure3, figureView),
	entry("f4", "Figure 4: matmul, adaptive architecture", Figure4, figureView),
	entry("f5", "Figure 5: sort, fixed architecture", Figure5, figureView),
	entry("f6", "Figure 6: sort, adaptive architecture", Figure6, figureView),
	entry("e1", "E1: service-time variance sensitivity",
		func(b core.Config, o ...engine.Options) ([]VariancePoint, error) {
			return VarianceSweep(DefaultCVs, b, o...)
		},
		varianceView),
	entry("e2", "E2: wormhole routing ablation", WormholeAblation, ablationView),
	entry("e3", "E3: basic quantum sweep",
		func(b core.Config, o ...engine.Options) ([]QuantumPoint, error) {
			return QuantumSweep(DefaultQuanta, b, o...)
		},
		quantumView),
	entry("e4", "E4: RR-job vs RR-process fairness", RunRRComparison, rrView),
	entry("e5", "E5: multiprogramming level tuning",
		func(b core.Config, o ...engine.Options) ([]MPLPoint, error) { return MPLSweep(DefaultMPLs, b, o...) },
		mplView),
	entry("e6", "E6: open-system load sweep (static/hybrid/dynamic)",
		func(b core.Config, o ...engine.Options) ([]LoadPoint, error) {
			return OpenLoadSweep(DefaultLoads, b, o...)
		},
		loadView),
	entry("e7", "E7: gang scheduling vs RR-job", GangVsRRJob, gangView),
	entry("e8", "E8: topology stress with the halo-exchange stencil", StencilTopology, stencilView),
	entry("e9", "E9: machine-size scalability (16-64 nodes)",
		func(b core.Config, o ...engine.Options) ([]ScaleCell, error) {
			return Scalability(DefaultScales, b, o...)
		},
		scaleView),
	entry("e10", "E10: binomial-tree broadcast ablation", BroadcastAblation, broadcastView),
	entry("e11", "E11: sort-algorithm ablation (selection vs merge)", SortAlgorithmAblation, sortAlgView),
	entry("e12", "E12: butterfly all-reduce vs topology", CollectiveTopology, collectiveView),
	entry("e14", "E14: policy zoo vs the paper's disciplines", PolicyZoo, zooView),
	entry("e15", "E15: policy zoo under open-system load",
		func(b core.Config, o ...engine.Options) ([]OpenCell, error) { return OpenSweep(b, nil, o...) },
		openView),
}

// Catalog returns every named experiment in presentation order. The slice
// is shared; callers must not mutate it.
func Catalog() []CatalogEntry { return catalog }

// Lookup resolves an experiment id — canonical ("f3", "e6") or the "fig3"
// long form — to its entry, or nil.
func Lookup(id string) *CatalogEntry {
	if len(id) > 3 && id[:3] == "fig" {
		id = "f" + id[3:]
	}
	for i := range catalog {
		if catalog[i].ID == id {
			return &catalog[i]
		}
	}
	return nil
}
