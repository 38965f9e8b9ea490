// Command deepeye finds the top-k visualizations for a CSV file — the
// paper's "blink and it's done" workflow (Fig. 9) at the command line.
//
// Usage:
//
//	deepeye -csv data.csv -k 5
//	deepeye -csv data.csv -k 3 -vega out/        # export Vega-Lite specs
//	deepeye -csv data.csv -query "VISUALIZE line SELECT date, AVG(price) FROM t BIN date BY MONTH"
//	deepeye -csv data.csv -ask "top 5 regions by total sales"
//	                                             # natural-language question:
//	                                             # ranked interpretations with
//	                                             # parse confidence and the
//	                                             # ambiguities that were resolved
//	deepeye -csv data.csv -k 5 -progressive      # tournament selector
//	deepeye -csv data.csv -k 5 -exhaustive       # full Fig. 3 search space
//	deepeye -csv day1.csv -append day2.csv,day3.csv -k 5
//	                                             # live-registry ingestion demo:
//	                                             # append each file's rows, then
//	                                             # rank the grown snapshot
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	deepeye "github.com/deepeye/deepeye"
	"github.com/deepeye/deepeye/internal/dataset"
	"github.com/deepeye/deepeye/internal/obs"
	"github.com/deepeye/deepeye/internal/report"
)

func main() {
	var (
		csvPath     = flag.String("csv", "", "input CSV file (required)")
		k           = flag.Int("k", 5, "number of visualizations to return")
		query       = flag.String("query", "", "run one visualization-language query instead of top-k")
		search      = flag.String("search", "", "keyword search, e.g. \"delay trend by hour\"")
		ask         = flag.String("ask", "", "natural-language question, e.g. \"top 5 regions by total sales\"")
		multi       = flag.Bool("multi", false, "suggest multi-series charts instead of single-series top-k")
		profile     = flag.Bool("profile", false, "print the column profile and exit")
		appendCSVs  = flag.String("append", "", "comma-separated CSV files (header row skipped) appended to the dataset via the live registry before ranking")
		vegaDir     = flag.String("vega", "", "directory to write Vega-Lite specs into")
		htmlPath    = flag.String("html", "", "write an HTML report of the results to this file")
		jsonOut     = flag.Bool("json", false, "print results as JSON instead of ASCII charts")
		progressive = flag.Bool("progressive", false, "use the progressive tournament selector")
		exhaustive  = flag.Bool("exhaustive", false, "enumerate the full search space instead of rule-pruned candidates")
		oneColumn   = flag.Bool("one-column", true, "include single-column histograms")
		width       = flag.Int("width", 60, "ASCII chart width")
		timeout     = flag.Duration("timeout", 0, "bound selection time; expired runs fail with a deadline error (0 = none)")
		stats       = flag.Bool("stats", false, "print per-stage pipeline timings after the run")
		workers     = flag.Int("workers", -1, "selection-pipeline worker count: 0 and 1 run inline, n > 1 uses at most n goroutines per stage, negative = GOMAXPROCS (results are identical either way)")
		dataDir     = flag.String("data-dir", "", "durability directory for the -append live registry: datasets journaled there survive across runs (empty = in-memory only)")
	)
	flag.Parse()
	if *csvPath == "" {
		fmt.Fprintln(os.Stderr, "usage: deepeye -csv data.csv [-k 5] [-query ...] [-search ...] [-multi] [-profile] [-vega dir]")
		flag.PrintDefaults()
		os.Exit(2)
	}
	cfg := runConfig{
		csvPath: *csvPath, k: *k, query: *query, search: *search, ask: *ask,
		appendCSVs: *appendCSVs, dataDir: *dataDir,
		multi: *multi, profile: *profile, vegaDir: *vegaDir, htmlPath: *htmlPath,
		jsonOut:     *jsonOut,
		progressive: *progressive, exhaustive: *exhaustive,
		oneColumn: *oneColumn, width: *width,
		timeout: *timeout,
		workers: *workers,
	}
	err := run(cfg)
	if *stats {
		printStageStats()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "deepeye:", err)
		os.Exit(1)
	}
}

// printStageStats reports the pipeline's per-stage timings collected in
// the default obs registry during this run.
func printStageStats() {
	sums := obs.StageSummaries()
	if len(sums) == 0 {
		return
	}
	fmt.Fprintln(os.Stderr, "\npipeline stages:")
	for _, s := range sums {
		fmt.Fprintf(os.Stderr, "  %-40s n=%-3d total=%-12s mean=%s\n",
			s.Labels, s.Count, s.Sum.Round(time.Microsecond), s.Mean.Round(time.Microsecond))
	}
}

type runConfig struct {
	csvPath, query, search, ask        string
	vegaDir                            string
	htmlPath, appendCSVs, dataDir      string
	k, width, workers                  int
	multi, profile, jsonOut            bool
	progressive, exhaustive, oneColumn bool
	timeout                            time.Duration
}

// ingestAppends registers tab as a live dataset, streams each CSV's
// rows in through the incremental-maintenance path (header rows are
// skipped; the registered schema fixes each column's type), and
// returns the grown snapshot. After every batch it prints the new row
// count, snapshot epoch, and content fingerprint so the incremental
// bookkeeping is visible.
func ingestAppends(sys *deepeye.System, tab *deepeye.Table, files string, quiet bool) (*deepeye.Table, error) {
	info, err := sys.RegisterTable(tab.Name, tab)
	if errors.Is(err, deepeye.ErrDatasetExists) {
		// A durable run (-data-dir) recovered the dataset from a prior
		// invocation: keep appending to it instead of re-registering.
		info, err = sys.DatasetInfoByName(tab.Name)
		if err != nil {
			return nil, err
		}
		if !quiet {
			fmt.Printf("resuming %q from the journal: %d rows, epoch=%d fingerprint=%s\n",
				info.Name, info.Rows, info.Epoch, info.Fingerprint)
		}
	} else if err != nil {
		return nil, err
	} else if !quiet {
		fmt.Printf("registered %q: epoch=%d fingerprint=%s\n", info.Name, info.Epoch, info.Fingerprint)
	}
	for _, path := range strings.Split(files, ",") {
		path = strings.TrimSpace(path)
		if path == "" {
			continue
		}
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		res, err := sys.AppendCSV(tab.Name, f, true)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("appending %s: %w", path, err)
		}
		if !quiet {
			fmt.Printf("appended %s: +%d rows → %d total, epoch=%d fingerprint=%s", path, res.Appended, res.Rows, res.Epoch, res.Fingerprint)
			if res.Ragged > 0 {
				fmt.Printf(" (%d ragged rows truncated)", res.Ragged)
			}
			fmt.Println()
		}
	}
	snap, ok := sys.DatasetSnapshot(tab.Name)
	if !ok {
		return nil, fmt.Errorf("dataset %q vanished from the registry", tab.Name)
	}
	if !quiet {
		fmt.Println()
	}
	return snap, nil
}

// runAsk answers a natural-language question: ranked interpretations
// with parse confidence, plus the bindings, ambiguity slots, and
// guessed completions that explain each reading.
func runAsk(ctx context.Context, sys *deepeye.System, tab *deepeye.Table, cfg runConfig) error {
	a, err := sys.AskCtx(ctx, tab, cfg.ask, cfg.k)
	if err != nil {
		return err
	}
	if cfg.jsonOut {
		type askChartJSON struct {
			chartJSON
			Confidence  float64  `json:"confidence"`
			Blended     float64  `json:"blended"`
			Completions []string `json:"completions,omitempty"`
		}
		out := struct {
			Query       string                 `json:"query"`
			Normalized  string                 `json:"normalized"`
			Charts      []askChartJSON         `json:"charts"`
			Bindings    []deepeye.AskBinding   `json:"bindings,omitempty"`
			Ambiguities []deepeye.AskAmbiguity `json:"ambiguities,omitempty"`
			Unparsed    []string               `json:"unparsed,omitempty"`
		}{Query: a.Query, Normalized: a.Normalized, Bindings: a.Bindings, Ambiguities: a.Ambiguities, Unparsed: a.Unparsed}
		for i, r := range a.Results {
			labels, values := r.Data()
			row := askChartJSON{
				chartJSON:   chartJSON{Rank: i + 1, Query: r.Query, Chart: r.Chart, Score: r.Score, Labels: labels, Values: values},
				Confidence:  r.Confidence,
				Blended:     r.Blended,
				Completions: r.Completions,
			}
			if spec, err := r.VegaLite(); err == nil {
				row.Vega = spec
			}
			out.Charts = append(out.Charts, row)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(out)
	}
	for _, b := range a.Bindings {
		fmt.Printf("bound %q ← %s\n", b.Column, strings.Join(b.Words, " "))
	}
	for _, am := range a.Ambiguities {
		fmt.Printf("ambiguous %s: %s\n", am.Slot, strings.Join(am.Options, " | "))
	}
	if len(a.Unparsed) > 0 {
		fmt.Printf("unparsed: %s\n", strings.Join(a.Unparsed, " "))
	}
	if len(a.Bindings)+len(a.Ambiguities)+len(a.Unparsed) > 0 {
		fmt.Println()
	}
	for i, r := range a.Results {
		fmt.Printf("#%d  confidence=%.2f score=%.4f\n%s\n", i+1, r.Confidence, r.Score, r.Query)
		if len(r.Completions) > 0 {
			fmt.Printf("(guessed: %s)\n", strings.Join(r.Completions, "; "))
		}
		fmt.Println(r.RenderASCIISize(cfg.width, 14))
	}
	return nil
}

// chartJSON is the -json output row.
type chartJSON struct {
	Rank   int             `json:"rank"`
	Query  string          `json:"query"`
	Chart  string          `json:"chart"`
	Score  float64         `json:"score"`
	Labels []string        `json:"labels,omitempty"`
	Values []float64       `json:"values,omitempty"`
	Vega   json.RawMessage `json:"vega,omitempty"`
}

func run(cfg runConfig) error {
	tab, err := deepeye.LoadCSVFile(cfg.csvPath)
	if err != nil {
		return err
	}
	if !cfg.jsonOut {
		fmt.Printf("loaded %s: %d rows × %d columns\n", cfg.csvPath, tab.NumRows(), tab.NumCols())
		if tab.RaggedRows > 0 {
			fmt.Printf("warning: %d ragged rows wider than the header were truncated\n", tab.RaggedRows)
		}
		fmt.Println()
	}

	if cfg.profile {
		if tab.RaggedRows > 0 {
			fmt.Printf("ragged rows truncated: %d\n", tab.RaggedRows)
		}
		fmt.Print(dataset.FormatProfile(tab.Profile(5)))
		return nil
	}

	opts := deepeye.Options{
		Progressive:      cfg.progressive,
		IncludeOneColumn: cfg.oneColumn,
		Workers:          cfg.workers,
	}
	if cfg.exhaustive {
		opts.Enum = deepeye.EnumExhaustive
	}
	if cfg.appendCSVs != "" {
		// The -append demo holds one dataset in-process; budget is moot.
		opts.RegistrySize = 1 << 30
		opts.DataDir = cfg.dataDir
	}
	sys, err := deepeye.Open(opts)
	if err != nil {
		return err
	}
	defer sys.Close()
	if cfg.dataDir != "" && !cfg.jsonOut {
		rec := sys.Recovery()
		if rec.SnapshotDatasets+rec.ReplayedRecords > 0 {
			fmt.Printf("recovered %s: %d snapshot datasets, %d journal records replayed\n",
				cfg.dataDir, rec.SnapshotDatasets, rec.ReplayedRecords)
		}
	}

	if cfg.appendCSVs != "" {
		tab, err = ingestAppends(sys, tab, cfg.appendCSVs, cfg.jsonOut)
		if err != nil {
			return err
		}
	}

	ctx := context.Background()
	if cfg.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.timeout)
		defer cancel()
	}

	if cfg.ask != "" {
		return runAsk(ctx, sys, tab, cfg)
	}

	if cfg.multi {
		vs, err := sys.SuggestMultiCtx(ctx, tab, cfg.k)
		if err != nil {
			return err
		}
		for _, v := range vs {
			fmt.Printf("#%d  score=%.3f\n%s\n", v.Rank, v.Score, v.Query)
			fmt.Println(v.RenderASCIISize(cfg.width, 12))
		}
		return nil
	}

	var vs []*deepeye.Visualization
	switch {
	case cfg.query != "":
		v, err := sys.QueryCtx(ctx, tab, cfg.query)
		if err != nil {
			return err
		}
		vs = []*deepeye.Visualization{v}
	case cfg.search != "":
		vs, err = sys.SearchCtx(ctx, tab, cfg.search, cfg.k)
		if err != nil {
			return err
		}
	default:
		vs, err = sys.TopKCtx(ctx, tab, cfg.k)
		if err != nil {
			return err
		}
	}
	vegaDir, width := cfg.vegaDir, cfg.width
	if cfg.jsonOut {
		var rows []chartJSON
		for i, v := range vs {
			labels, values := v.Data()
			row := chartJSON{Rank: i + 1, Query: v.Query, Chart: v.Chart, Score: v.Score, Labels: labels, Values: values}
			if spec, err := v.VegaLite(); err == nil {
				row.Vega = spec
			}
			rows = append(rows, row)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rows); err != nil {
			return err
		}
	} else {
		for i, v := range vs {
			fmt.Printf("#%d  score=%.4f", i+1, v.Score)
			if e := v.Explain(); e.HasFactors {
				fmt.Printf("  [M=%.2f Q=%.2f W=%.2f corr=%.2f trend=%s]",
					e.M, e.Q, e.W, e.Correlation, e.Trend)
			}
			fmt.Printf("\n%s\n", v.Query)
			fmt.Println(v.RenderASCIISize(width, 14))
		}
	}
	if vegaDir != "" {
		if err := os.MkdirAll(vegaDir, 0o755); err != nil {
			return err
		}
		for i, v := range vs {
			spec, err := v.VegaLite()
			if err != nil {
				return err
			}
			path := filepath.Join(vegaDir, fmt.Sprintf("chart_%02d.vl.json", i+1))
			if err := os.WriteFile(path, spec, 0o644); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", path)
		}
	}
	if cfg.htmlPath != "" {
		page, err := report.FromVisualizations(tab, vs)
		if err != nil {
			return err
		}
		f, err := os.Create(cfg.htmlPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := report.Render(f, page); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", cfg.htmlPath)
	}
	return nil
}
