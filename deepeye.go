// Package deepeye is a from-scratch Go implementation of DeepEye
// (Luo, Qin, Tang, Li — "DeepEye: Towards Automatic Data Visualization",
// ICDE 2018): given a relational table, it finds the top-k visualizations
// that tell the table's most compelling stories.
//
// The system answers the paper's three questions:
//
//   - Visualization recognition — is a candidate chart good or bad?
//     (binary classifiers: decision tree, naive Bayes, linear SVM)
//   - Visualization ranking — which of two charts is better?
//     (LambdaMART learning-to-rank, expert partial orders, or a hybrid)
//   - Visualization selection — the top-k charts for a dataset
//     (rule pruning, dominance-graph scoring)
//
// # Quick start
//
//	tab, _ := deepeye.LoadCSVFile("flights.csv")
//	sys := deepeye.New(deepeye.Options{})
//	vs, _ := sys.TopK(tab, 5)
//	for _, v := range vs {
//	    fmt.Println(v.Query)
//	    fmt.Print(v.RenderASCII())
//	}
//
// The zero-configuration system uses the expert rules for candidate
// pruning and the partial-order ranking — no training required. Train the
// ML models (recognition classifier, learning-to-rank, hybrid weight) with
// TrainFromOracle; implement Oracle to train from your own labels instead
// of the simulated crowd.
package deepeye

import (
	"context"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"github.com/deepeye/deepeye/internal/cache"
	"github.com/deepeye/deepeye/internal/chart"
	"github.com/deepeye/deepeye/internal/dataset"
	"github.com/deepeye/deepeye/internal/hybrid"
	"github.com/deepeye/deepeye/internal/ml"
	"github.com/deepeye/deepeye/internal/ml/lambdamart"
	"github.com/deepeye/deepeye/internal/obs"
	"github.com/deepeye/deepeye/internal/rank"
	"github.com/deepeye/deepeye/internal/registry"
	"github.com/deepeye/deepeye/internal/rules"
	"github.com/deepeye/deepeye/internal/transform"
	"github.com/deepeye/deepeye/internal/vizql"
	"github.com/deepeye/deepeye/internal/wal"
)

// Table is a typed relational table (columns are categorical, numerical,
// or temporal; types are inferred on load).
type Table = dataset.Table

// LoadCSV reads a table with a header row from r, inferring column types.
func LoadCSV(name string, r io.Reader) (*Table, error) { return dataset.FromCSV(name, r) }

// LoadCSVLimited is LoadCSV with ingestion limits applied while the CSV
// streams; an oversized payload aborts with *IngestLimitError before it
// is materialized.
func LoadCSVLimited(name string, r io.Reader, lim IngestLimits) (*Table, error) {
	return dataset.FromCSVLimited(name, r, nil, lim)
}

// LoadCSVFile reads a table from a CSV file.
func LoadCSVFile(path string) (*Table, error) { return dataset.FromCSVFile(path) }

// ColType is a column's inferred or forced type.
type ColType = dataset.ColType

// Column type constants for LoadCSVWithTypes overrides.
const (
	Categorical = dataset.Categorical
	Numerical   = dataset.Numerical
	Temporal    = dataset.Temporal
)

// LoadCSVWithTypes reads a table, forcing the listed columns' types
// instead of inferring them (e.g. year codes that must stay categorical).
func LoadCSVWithTypes(name string, r io.Reader, overrides map[string]ColType) (*Table, error) {
	return dataset.FromCSVWithTypes(name, r, overrides)
}

// LoadJSON reads a table from a JSON array of flat objects (the shape
// most REST APIs produce); the schema is the union of keys.
func LoadJSON(name string, r io.Reader) (*Table, error) {
	return dataset.FromJSON(name, r)
}

// EnumMode selects how candidate visualizations are generated.
type EnumMode int

const (
	// EnumRules generates only candidates the expert rules of §V-A accept
	// (the paper's fast "R" configuration). Default.
	EnumRules EnumMode = iota
	// EnumExhaustive enumerates the full two-column search space of
	// Fig. 3 (the paper's "E" configuration); bad candidates are filtered
	// by the recognizer downstream.
	EnumExhaustive
)

// RankMethod selects the ranking engine.
type RankMethod int

const (
	// MethodPartialOrder ranks with the expert partial order (§IV).
	// Default; needs no training.
	MethodPartialOrder RankMethod = iota
	// MethodLearningToRank ranks with the trained LambdaMART model
	// (§III); requires TrainFromOracle or Train.
	MethodLearningToRank
	// MethodHybrid combines both rankings with the learned α (§IV-D).
	MethodHybrid
)

// Options configures a System.
type Options struct {
	Enum   EnumMode
	Method RankMethod
	// GraphBuild selects the dominance-graph construction algorithm.
	GraphBuild rank.BuildMethod
	// Factors tunes the partial-order factor computation.
	Factors rank.FactorOptions
	// IncludeOneColumn adds single-column histograms to the candidates.
	IncludeOneColumn bool
	// UseRecognizer filters candidates through the trained binary
	// classifier before ranking (requires a trained recognizer).
	UseRecognizer bool
	// Workers parallelizes the selection pipeline across a bounded worker
	// pool (the paper notes the task is trivially parallelizable, §VI-D):
	// candidate materialization (one X column per task), factor
	// computation, dominance-graph construction, and batch
	// classifier/ranker inference. 0 and 1 run every stage inline on the
	// caller's goroutine, n > 1 uses at most n goroutines per stage, and
	// a negative count means GOMAXPROCS.
	// Results are bit-identical for any worker count — the differential
	// test suite asserts parallel == serial — so Workers trades wall time
	// only, never output.
	Workers int
	// CacheSize, when positive, enables the result/statistics cache: a
	// sharded LRU with this total byte budget memoizing TopK, Search,
	// Query and Ask answers, ranked candidate sets, and per-column
	// statistics by table content fingerprint, with request coalescing
	// for concurrent identical calls. Repeated-table workloads (the
	// common serving shape) skip the whole selection pipeline on a hit.
	// Cached results are shared across callers — treat returned
	// visualizations and their Vega-Lite bytes as read-only when caching
	// is enabled. 0 disables caching.
	CacheSize int64
	// CacheRegistry receives the cache's deepeye_cache_* metrics; nil
	// uses obs.Default, the registry behind the server's /metrics.
	CacheRegistry *obs.Registry
	// RegistrySize, when positive, enables the live dataset registry
	// (RegisterTable/AppendRows/TopKByName and the server's /datasets
	// API): named append-only datasets held under this byte budget
	// with LRU eviction, incrementally maintained statistics and
	// fingerprints, and snapshot-consistent reads. 0 disables it.
	RegistrySize int64
	// DatasetTTL expires registered datasets not accessed within the
	// window (0 = never). Only meaningful with RegistrySize > 0.
	DatasetTTL time.Duration
	// DataDir, when set, makes the live dataset registry crash-safe:
	// every mutation is journaled to a checksummed write-ahead log in
	// this directory (fsynced per mutation unless WALNoSync) before it
	// is acknowledged, and Open replays snapshot + WAL on startup, so a
	// kill -9 loses nothing. Requires RegistrySize > 0; construct the
	// System with Open (New panics on a recovery failure). If a journal
	// write ever fails the registry degrades to read-only: reads keep
	// serving, mutations fail with ErrDatasetReadOnly.
	DataDir string
	// WALCompactBytes triggers snapshot compaction when the WAL file
	// outgrows it (the journal is folded into a snapshot and reset).
	// 0 uses the 64 MiB default; negative disables size-triggered
	// compaction.
	WALCompactBytes int64
	// WALNoSync skips the per-mutation fsync: throughput over
	// durability. Acknowledged mutations may be lost on power failure,
	// but the checksummed framing still recovers a clean prefix.
	WALNoSync bool
}

// System is a configured DeepEye instance. Construct with New; train the
// optional ML models with TrainFromOracle (or TrainRecognizer/TrainRanker
// over a Corpus built from your own Oracle).
type System struct {
	opts       Options
	recognizer ml.Classifier
	ltr        *lambdamart.Model
	alpha      float64

	// cache memoizes results/statistics by table fingerprint when
	// Options.CacheSize > 0 (nil otherwise); modelGen invalidates cached
	// entries when training/loading swaps the models out from under
	// previously cached rankings. It is atomic because optionsKey reads
	// it on every cached request while Train*/LoadModels bump it.
	cache    *cache.Cache
	modelGen atomic.Uint64

	// registry holds live datasets when Options.RegistrySize > 0 (nil
	// otherwise); retired fingerprints flow back into targeted cache
	// invalidation (see live.go).
	registry *registry.Registry

	// wal is the registry's durability journal when Options.DataDir is
	// set (nil otherwise); recovery records what Open replayed.
	wal      *wal.Log
	recovery RecoveryInfo
}

// RecoveryInfo reports what Open recovered from Options.DataDir.
type RecoveryInfo struct {
	// SnapshotDatasets is the number of datasets loaded from the
	// snapshot file; ReplayedRecords the WAL records applied after it.
	SnapshotDatasets int
	ReplayedRecords  int
	// Truncated reports that a torn or corrupt record was found and the
	// journal was cut there (expected after a crash, not an error).
	Truncated bool
	// DroppedDatasets names recovered datasets whose recomputed content
	// fingerprint disagreed with the journaled rolling digest; they were
	// dropped rather than served.
	DroppedDatasets []string
}

// New creates a System. The zero Options value gives the rule-pruned,
// partial-order-ranked configuration that needs no training. With
// Options.DataDir set, New delegates to Open and panics on a recovery
// failure — call Open directly to handle it.
func New(opts Options) *System {
	s, err := Open(opts)
	if err != nil {
		panic("deepeye: " + err.Error())
	}
	return s
}

// Open creates a System and, when Options.DataDir is set, recovers the
// live dataset registry from its write-ahead log: the newest snapshot
// is loaded, the journal replayed (truncating at the first torn or
// corrupt record), every recovered dataset's fingerprint verified
// against a recompute, and journaling armed for subsequent mutations.
// Callers owning a durable System should Close it on shutdown.
func Open(opts Options) (*System, error) {
	s := &System{opts: opts, alpha: 1}
	if opts.CacheSize > 0 {
		s.cache = cache.New(cache.Config{Name: "result", MaxBytes: opts.CacheSize, Registry: opts.CacheRegistry})
	}
	if opts.RegistrySize > 0 {
		s.registry = registry.New(registry.Config{
			MaxBytes: opts.RegistrySize,
			TTL:      opts.DatasetTTL,
			Obs:      opts.CacheRegistry,
			OnRetire: func(fp string) {
				if s.cache != nil {
					s.cache.RemoveFingerprint(fp)
				}
			},
		})
	}
	if opts.DataDir == "" {
		return s, nil
	}
	if s.registry == nil {
		return nil, fmt.Errorf("deepeye: Options.DataDir requires RegistrySize > 0")
	}
	log, stats, err := wal.Open(wal.Config{
		Dir: opts.DataDir, NoSync: opts.WALNoSync, Obs: opts.CacheRegistry,
	}, s.registry.Applier())
	if err != nil {
		return nil, fmt.Errorf("deepeye: recovering %s: %w", opts.DataDir, err)
	}
	s.recovery = RecoveryInfo{
		SnapshotDatasets: stats.SnapshotRecords,
		ReplayedRecords:  stats.Replayed,
		Truncated:        stats.Truncated,
		DroppedDatasets:  s.registry.VerifyRecovered(),
	}
	compact := opts.WALCompactBytes
	switch {
	case compact == 0:
		compact = 64 << 20
	case compact < 0:
		compact = 0
	}
	s.registry.AttachLog(log, compact)
	s.wal = log
	return s, nil
}

// Recovery reports what Open replayed from Options.DataDir (zero value
// when the System is not durable).
func (s *System) Recovery() RecoveryInfo { return s.recovery }

// Close releases the durability journal (no-op for non-durable
// Systems). Mutations after Close fail read-only.
func (s *System) Close() error {
	if s.wal == nil {
		return nil
	}
	return s.wal.Close()
}

// CacheStats snapshots the result/statistics cache counters; ok is
// false when caching is disabled.
func (s *System) CacheStats() (st cache.Stats, ok bool) {
	if s.cache == nil {
		return cache.Stats{}, false
	}
	return s.cache.CacheStats(), true
}

// PurgeCache drops every cached result and statistic without touching
// trained models. Useful in benchmarks and tests that need a cold cache;
// a no-op when caching is disabled.
func (s *System) PurgeCache() {
	if s.cache != nil {
		s.cache.Purge()
	}
}

// invalidateCache bumps the model generation and drops every cached
// entry. It must run AFTER the model fields have been swapped (Train*/
// LoadModels call it last): requests racing the swap key their results
// under the old generation — which the purge drops and no post-swap
// request ever reads — so no stale ranking can survive under the new
// generation key. Training concurrent with serving may still compute
// with a mid-swap model; such results are likewise keyed under the old
// generation and become unreachable once this runs.
func (s *System) invalidateCache() {
	s.modelGen.Add(1)
	if s.cache != nil {
		s.cache.Purge()
	}
}

// optionsKey renders the result-affecting configuration into the cache
// key: everything that changes the top-k except the table itself.
// Workers is deliberately excluded (parallelism does not change the
// result set); modelGen folds in the trained-model state.
func (s *System) optionsKey() string {
	o := s.opts
	return fmt.Sprintf("%d|%d|%d|%g|%d|%d|%t|%t|%g|%d",
		o.Enum, o.Method, o.GraphBuild,
		o.Factors.TrendThreshold, o.Factors.PieMaxSlices, o.Factors.BarMaxBars,
		o.IncludeOneColumn, o.UseRecognizer, s.alpha, s.modelGen.Load())
}

// Recognizer returns the trained recognition classifier (nil before
// training).
func (s *System) Recognizer() ml.Classifier { return s.recognizer }

// Alpha returns the hybrid preference weight (§IV-D).
func (s *System) Alpha() float64 { return s.alpha }

// Candidates enumerates, executes, and deduplicates the candidate
// visualizations for a table under the configured EnumMode, applying the
// recognizer filter when configured.
func (s *System) Candidates(t *Table) ([]*vizql.Node, error) {
	return s.CandidatesCtx(context.Background(), t)
}

// CandidatesCtx is Candidates with cancellation: enumeration and
// candidate materialization (the pipeline's dominant cost on large
// tables) both re-check ctx and return ctx.Err() promptly. Stage
// durations are reported to the default obs registry.
func (s *System) CandidatesCtx(ctx context.Context, t *Table) ([]*vizql.Node, error) {
	if t == nil || t.NumRows() == 0 {
		return nil, fmt.Errorf("deepeye: empty table")
	}
	stop := obs.StageTimer(obs.StageEnumerate)
	var queries []vizql.Query
	var err error
	switch s.opts.Enum {
	case EnumExhaustive:
		queries = vizql.EnumerateQueries(t)
		if s.opts.IncludeOneColumn {
			queries = append(queries, vizql.EnumerateOneColumnQueries(t)...)
		}
	default:
		queries, err = rules.EnumerateQueriesCtx(ctx, t)
		if err != nil {
			return nil, err
		}
		if !s.opts.IncludeOneColumn {
			// rules.EnumerateQueriesCtx includes one-column histograms;
			// filter them out when not requested.
			filtered := queries[:0]
			for _, q := range queries {
				if q.X != q.Y {
					filtered = append(filtered, q)
				}
			}
			queries = filtered
		}
	}
	stop()
	stop = obs.StageTimer(obs.StageExecute)
	nodes, err := vizql.ExecuteAllParallelCtx(ctx, t, queries, s.opts.Workers)
	if err != nil {
		return nil, err
	}
	stop()
	nodes = vizql.Dedupe(nodes)
	if s.opts.UseRecognizer {
		if s.recognizer == nil {
			return nil, fmt.Errorf("deepeye: UseRecognizer is set but no recognizer is trained")
		}
		preds, err := ml.PredictBatchCtx(ctx, s.recognizer, featureMatrix(nodes), s.opts.Workers)
		if err != nil {
			return nil, err
		}
		kept := nodes[:0]
		for i, n := range nodes {
			if preds[i] {
				kept = append(kept, n)
			}
		}
		nodes = kept
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("deepeye: no valid visualizations for table %q", t.Name)
	}
	return nodes, nil
}

// TopK returns the k best visualizations for the table, best first.
func (s *System) TopK(t *Table, k int) ([]*Visualization, error) {
	return s.TopKCtx(context.Background(), t, k)
}

// TopKCtx is TopK with cancellation threaded through the whole
// selection pipeline — candidate enumeration, materialization (including
// the parallel worker fan-out), factor computation and dominance-graph
// construction all re-check ctx and return ctx.Err() promptly, so
// callers can bound selection latency with context.WithTimeout.
//
// With Options.CacheSize set, the result is memoized by (table
// fingerprint, k, options) and concurrent identical calls coalesce onto
// one computation; a waiter's own ctx still cancels its wait, and a
// cancelled leader never poisons live waiters (one of them recomputes).
func (s *System) TopKCtx(ctx context.Context, t *Table, k int) ([]*Visualization, error) {
	if k <= 0 {
		return nil, fmt.Errorf("deepeye: k must be positive, got %d", k)
	}
	if s.cache == nil || t == nil {
		return s.topKCompute(ctx, t, k)
	}
	key := fmt.Sprintf("topk|%s|%d|%s", t.Fingerprint(), k, s.optionsKey())
	v, _, err := s.cache.Do(ctx, key, func(ctx context.Context) (any, int64, error) {
		cache.PrimeTable(s.cache, t)
		vs, err := s.topKCompute(ctx, t, k)
		if err != nil {
			return nil, 0, err
		}
		return vs, visualizationsSize(vs), nil
	})
	if err != nil {
		return nil, err
	}
	return v.([]*Visualization), nil
}

// topKCompute is the uncached selection pipeline behind TopKCtx.
func (s *System) topKCompute(ctx context.Context, t *Table, k int) ([]*Visualization, error) {
	nodes, ranking, err := s.rankedCandidatesCtx(ctx, t)
	if err != nil {
		return nil, err
	}
	// ORDER BY and aggregate variants of one (chart, columns, bucketing)
	// combination often tie on every ranking factor and would fill the
	// top-k with near-duplicates; keep only the best-ranked variant of
	// each combination so the first page stays diverse (cf. Fig. 9).
	out := make([]*Visualization, 0, k)
	seen := make(map[string]bool, k)
	for _, idx := range ranking.Order {
		n := nodes[idx]
		key := diversityKey(n)
		if seen[key] {
			continue
		}
		seen[key] = true
		v := newVisualization(n, ranking.Scores[idx], len(out)+1)
		if ranking.Factors != nil {
			v.attachFactors(ranking.Factors[idx])
		}
		out = append(out, v)
		if len(out) == k {
			break
		}
	}
	return out, nil
}

// diversityKey names a node's (chart, columns, bucketing) combination.
// TopK and Search each keep only the best-ranked node per key.
func diversityKey(n *vizql.Node) string {
	return fmt.Sprintf("%s|%s|%s|%d|%d|%d", n.Chart, n.XName, n.YName,
		n.Query.Spec.Kind, n.Query.Spec.Unit, n.Query.Spec.N)
}

// rankedSet is the cached product of candidate generation + ranking:
// everything k-independent about a TopK answer. Reused across requests
// that differ only in k, so the dominance graph is built once per
// (table content, options).
type rankedSet struct {
	nodes   []*vizql.Node
	ranking rank.Ranking
}

// sizeBytes charges each node its fixed overhead and each distinct
// Result once: chart-type siblings, and under a count every Y column,
// share one.
func (rs rankedSet) sizeBytes() int64 {
	sz := rs.ranking.SizeBytes() + int64(len(rs.nodes))*nodeOverhead
	seen := make(map[*transform.Result]bool, len(rs.nodes))
	for _, n := range rs.nodes {
		if !seen[n.Res] {
			seen[n.Res] = true
			sz += resultSize(n.Res)
		}
	}
	return sz
}

// rankedCandidatesCtx enumerates, materializes, and ranks the candidate
// set, consulting the rank-level cache when enabled.
func (s *System) rankedCandidatesCtx(ctx context.Context, t *Table) ([]*vizql.Node, rank.Ranking, error) {
	compute := func(ctx context.Context) (rankedSet, error) {
		nodes, err := s.CandidatesCtx(ctx, t)
		if err != nil {
			return rankedSet{}, err
		}
		stop := obs.StageTimer(obs.StageRank)
		order, scores, factors, err := s.rankNodesExplainedCtx(ctx, nodes)
		stop()
		if err != nil {
			return rankedSet{}, err
		}
		return rankedSet{nodes: nodes, ranking: rank.Ranking{Order: order, Scores: scores, Factors: factors}}, nil
	}
	if s.cache == nil || t == nil {
		rs, err := compute(ctx)
		return rs.nodes, rs.ranking, err
	}
	key := fmt.Sprintf("rank|%s|%s", t.Fingerprint(), s.optionsKey())
	v, _, err := s.cache.Do(ctx, key, func(ctx context.Context) (any, int64, error) {
		rs, err := compute(ctx)
		if err != nil {
			return nil, 0, err
		}
		return rs, rs.sizeBytes(), nil
	})
	if err != nil {
		return nil, rank.Ranking{}, err
	}
	rs := v.(rankedSet)
	return rs.nodes, rs.ranking, nil
}

// nodeSize estimates the bytes a materialized candidate holds (for
// cache accounting): the transformed series plus fixed overhead.
func nodeSize(n *vizql.Node) int64 {
	return nodeOverhead + resultSize(n.Res)
}

// nodeOverhead is a node's fixed size estimate, its series excluded.
const nodeOverhead = 256

// resultSize estimates the bytes a transformed series holds.
func resultSize(r *transform.Result) int64 {
	if r == nil {
		return 0
	}
	sz := int64(r.Len()) * 48 // XOrder + Y + label headers
	for _, l := range r.XLabels {
		sz += int64(len(l))
	}
	return sz
}

// vizSize estimates the bytes a cached visualization holds: its text,
// its node, and an upper bound on the Vega-Lite spec it memoizes once
// served. Every cache entry that holds visualizations sums it.
func vizSize(v *Visualization) int64 {
	return int64(len(v.Query)+len(v.Chart)) + 64 + nodeSize(v.node) + chart.VegaLiteSizeBound(v.node.Data())
}

// visualizationsSize estimates the bytes a cached top-k or search
// answer holds.
func visualizationsSize(vs []*Visualization) int64 {
	var sz int64
	for _, v := range vs {
		sz += vizSize(v)
	}
	return sz
}

// Rank orders an explicit candidate set best-first and returns the order
// and per-node scores under the configured method.
func (s *System) Rank(nodes []*vizql.Node) ([]int, error) {
	order, _, err := s.rankNodes(nodes)
	return order, err
}

func (s *System) rankNodes(nodes []*vizql.Node) (order []int, scores []float64, err error) {
	order, scores, _, err = s.rankNodesExplainedCtx(context.Background(), nodes)
	return order, scores, err
}

// rankNodesExplainedCtx additionally returns the partial-order factors
// when the configured method computes them (nil for pure
// learning-to-rank); ctx cancels factor computation and graph building.
func (s *System) rankNodesExplainedCtx(ctx context.Context, nodes []*vizql.Node) (order []int, scores []float64, factors []rank.Factors, err error) {
	switch s.opts.Method {
	case MethodLearningToRank:
		if s.ltr == nil {
			return nil, nil, nil, fmt.Errorf("deepeye: learning-to-rank requested but no model is trained")
		}
		feats := featureMatrix(nodes)
		scores, err = s.ltr.ScoreBatchCtx(ctx, feats, s.opts.Workers)
		if err != nil {
			return nil, nil, nil, err
		}
		order, err = s.ltr.RankBatchCtx(ctx, feats, s.opts.Workers)
		if err != nil {
			return nil, nil, nil, err
		}
		return order, scores, nil, nil
	case MethodHybrid:
		if s.ltr == nil {
			return nil, nil, nil, fmt.Errorf("deepeye: hybrid ranking requested but no model is trained")
		}
		ltrOrder, err := s.ltr.RankBatchCtx(ctx, featureMatrix(nodes), s.opts.Workers)
		if err != nil {
			return nil, nil, nil, err
		}
		poOrder, poScores, poFactors, err := partialOrderRankCtx(ctx, nodes, s.opts)
		if err != nil {
			return nil, nil, nil, err
		}
		order, err = hybrid.Combine(ltrOrder, poOrder, s.alpha)
		if err != nil {
			return nil, nil, nil, err
		}
		// Report partial-order scores (hybrid scores are rank positions).
		return order, poScores, poFactors, nil
	default:
		order, scores, factors, err = partialOrderRankCtx(ctx, nodes, s.opts)
		return order, scores, factors, err
	}
}

// partialOrderRankCtx computes factors, builds the Hasse diagram over a
// factor-sum shortlist, and ranks by the weight-aware score S(v).
func partialOrderRankCtx(ctx context.Context, nodes []*vizql.Node, opts Options) ([]int, []float64, []rank.Factors, error) {
	factors, err := rank.ComputeFactorsWorkersCtx(ctx, nodes, opts.Factors, opts.Workers)
	if err != nil {
		return nil, nil, nil, err
	}
	order, scores, err := rank.OrderCtx(ctx, nodes, factors, rank.SelectOptions{Build: opts.GraphBuild, Workers: opts.Workers})
	if err != nil {
		return nil, nil, nil, err
	}
	return order, scores, factors, nil
}

func featureMatrix(nodes []*vizql.Node) [][]float64 {
	out := make([][]float64, len(nodes))
	for i, n := range nodes {
		out[i] = n.Features.Slice()
	}
	return out
}

// Query parses a visualization-language query (paper Fig. 2) and executes
// it over the table, returning the materialized visualization.
func (s *System) Query(t *Table, src string) (*Visualization, error) {
	return s.QueryCtx(context.Background(), t, src)
}

// QueryCtx is Query with cancellation; a single query is one transform
// pass, so ctx is consulted once before executing. With caching
// enabled, the materialized result is memoized by (table fingerprint,
// query text) — query answers depend only on the data, not on the
// ranking options — and concurrent identical queries coalesce.
func (s *System) QueryCtx(ctx context.Context, t *Table, src string) (*Visualization, error) {
	if s.cache == nil || t == nil {
		return s.queryCompute(ctx, t, src)
	}
	key := "query|" + t.Fingerprint() + "|" + src
	v, _, err := s.cache.Do(ctx, key, func(ctx context.Context) (any, int64, error) {
		viz, err := s.queryCompute(ctx, t, src)
		if err != nil {
			return nil, 0, err
		}
		return viz, vizSize(viz), nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*Visualization), nil
}

func (s *System) queryCompute(ctx context.Context, t *Table, src string) (*Visualization, error) {
	q, err := vizql.Parse(src, map[string]*transform.UDF{"sign": vizql.DefaultUDF})
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n, err := vizql.Execute(t, q)
	if err != nil {
		return nil, err
	}
	return newVisualization(n, 0, 0), nil
}

// Recognize classifies a single candidate query as good or bad using the
// trained recognizer (paper problem 1).
func (s *System) Recognize(t *Table, src string) (bool, error) {
	if s.recognizer == nil {
		return false, fmt.Errorf("deepeye: no recognizer trained")
	}
	v, err := s.Query(t, src)
	if err != nil {
		return false, err
	}
	return s.recognizer.Predict(v.node.Features.Slice()), nil
}

// ChartTypes re-exports the four chart types for callers building UIs.
var ChartTypes = chart.AllTypes
