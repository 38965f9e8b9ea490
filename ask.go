package deepeye

import (
	"context"
	"fmt"
	"sort"
	"time"

	"github.com/deepeye/deepeye/internal/cache"
	"github.com/deepeye/deepeye/internal/nlq"
	"github.com/deepeye/deepeye/internal/obs"
	"github.com/deepeye/deepeye/internal/vizql"
)

// ErrNoIntent reports a natural-language or keyword query the parser
// could extract nothing from. Shared by Ask and Search so the HTTP
// layer maps both to a client error with a machine-readable reason.
var ErrNoIntent = nlq.ErrNoIntent

// Natural-language front-end metrics (default obs registry).
const (
	metricNLQParses   = "deepeye_nlq_parses_total"
	metricNLQFanout   = "deepeye_nlq_candidates"
	metricNLQUnparsed = "deepeye_nlq_unparsed_ratio"
)

// The obs histogram observes durations; counts and ratios are encoded
// at one unit per second so the exported bucket bounds read directly as
// candidate counts / ratio values.
var (
	nlqFanoutBounds   = []float64{1, 2, 4, 8, 16, 32, 64}
	nlqUnparsedBounds = []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9}
)

func observeParse(r *nlq.Result) {
	obs.Default.Counter(metricNLQParses, "Natural-language parses by outcome.", "outcome", "ok").Inc()
	obs.Default.Histogram(metricNLQFanout, "Ambiguity fan-out: candidate specs per parse.", nlqFanoutBounds).
		Observe(time.Duration(len(r.Candidates)) * time.Second)
	ratio := 0.0
	if p := r.Parsed; p.Tokens > 0 {
		ratio = float64(len(p.Unparsed)) / float64(p.Tokens)
	}
	obs.Default.Histogram(metricNLQUnparsed, "Fraction of content tokens the parser could not bind.", nlqUnparsedBounds).
		Observe(time.Duration(ratio * float64(time.Second)))
}

// AskBinding is one column the query's words bound to.
type AskBinding struct {
	Column string   `json:"column"`
	Score  float64  `json:"score"`
	Words  []string `json:"words"`
}

// AskAmbiguity is one underdetermined slot and the completions the
// enumerator considered for it, strongest first.
type AskAmbiguity struct {
	Slot    string   `json:"slot"`
	Options []string `json:"options"`
}

// AskResult is one ranked interpretation of a natural-language query:
// the executed visualization plus the parse explanation for this
// particular completion.
type AskResult struct {
	*Visualization
	// Confidence is the parse confidence of this completion in (0, 1]:
	// the product of per-slot match strengths and guess penalties.
	Confidence float64
	// Blended is the ordering score: confidence blended with the
	// selection pipeline's position (confidence − 0.001·pos), mirroring
	// how Search blends keyword affinity with base rank.
	Blended float64
	// Completions lists the slots the enumerator had to guess to make
	// the query concrete ("agg=SUM (unstated)", "unit=MONTH (guessed)").
	Completions []string
}

// AskAnswer is a full natural-language answer: the ranked
// interpretations plus the parse-level explanation shared by all of
// them.
type AskAnswer struct {
	Query       string         // the question as asked
	Normalized  string         // canonical token form (the cache key component)
	Results     []*AskResult   // ranked, best first
	Bindings    []AskBinding   // column evidence, strongest first
	Ambiguities []AskAmbiguity // slots with more than one reading
	Unparsed    []string       // content tokens that matched nothing
}

// Ask answers a natural-language question about a table with ranked,
// executed visualizations — the paper's "ambiguous keyword query"
// future work (§VIII) taken to full sentences:
//
//	sys.Ask(tab, "monthly average delay excluding 2015", 3)
//	sys.Ask(tab, "top 5 carriers by total passengers", 3)
//
// The parser binds words to columns, chart intents, aggregates,
// granularities, and filter phrases; every consistent completion of the
// ambiguous parts is enumerated, executed, and ranked by parse
// confidence blended with the selection pipeline's ordering. Queries
// with no recognizable intent fail with ErrNoIntent.
func (s *System) Ask(t *Table, query string, k int) (*AskAnswer, error) {
	return s.AskCtx(context.Background(), t, query, k)
}

// AskCtx is Ask with cancellation threaded through candidate execution
// and ranking. With Options.CacheSize set, answers are memoized by
// (table fingerprint, normalized query, k, options), so rewordings that
// normalize identically ("Sales by region!" / "sales by region") share
// one cached computation.
func (s *System) AskCtx(ctx context.Context, t *Table, query string, k int) (*AskAnswer, error) {
	if k <= 0 {
		return nil, fmt.Errorf("deepeye: k must be positive, got %d", k)
	}
	if t == nil || t.NumRows() == 0 {
		return nil, fmt.Errorf("deepeye: empty table")
	}
	sc := nlq.SchemaFromTable(t)
	r, err := nlq.Parse(query, sc, nlq.Options{})
	if err != nil {
		obs.Default.Counter(metricNLQParses, "Natural-language parses by outcome.", "outcome", "no_intent").Inc()
		return nil, fmt.Errorf("deepeye: ask %q: %w", query, err)
	}
	observeParse(r)
	if len(r.Candidates) == 0 {
		return nil, fmt.Errorf("deepeye: ask %q: no executable interpretation for table %q", query, t.Name)
	}
	if s.cache == nil {
		return s.askCompute(ctx, t, r, k)
	}
	key := fmt.Sprintf("ask|%s|%d|%q|%s", t.Fingerprint(), k, r.Parsed.Normalized, s.optionsKey())
	v, _, err := s.cache.Do(ctx, key, func(ctx context.Context) (any, int64, error) {
		cache.PrimeTable(s.cache, t)
		a, err := s.askCompute(ctx, t, r, k)
		if err != nil {
			return nil, 0, err
		}
		return a, askAnswerSize(a), nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*AskAnswer), nil
}

// askCompute executes and ranks a parse's candidate completions.
func (s *System) askCompute(ctx context.Context, t *Table, r *nlq.Result, k int) (*AskAnswer, error) {
	queries := make([]vizql.Query, len(r.Candidates))
	byKey := make(map[string]*nlq.Candidate, len(r.Candidates))
	for i := range r.Candidates {
		queries[i] = r.Candidates[i].Query
		byKey[queries[i].Key()] = &r.Candidates[i]
	}
	// The batch executor shares per-table scans and column pulls across
	// candidates and silently drops inexecutable completions, exactly as
	// enumeration does for its candidate space.
	nodes, err := vizql.ExecuteAllParallelCtx(ctx, t, queries, s.opts.Workers)
	if err != nil {
		return nil, err
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("deepeye: ask %q: no interpretation was executable against table %q", r.Parsed.Query, t.Name)
	}
	order, scores, factors, err := s.rankNodesExplainedCtx(ctx, nodes)
	if err != nil {
		return nil, err
	}
	// Normalize the base ranking to positions so parse confidence and
	// ranking quality combine on comparable scales (the Search blend).
	pos := make([]int, len(nodes))
	for p, idx := range order {
		pos[idx] = p
	}
	type scored struct {
		idx     int
		cand    *nlq.Candidate
		blended float64
	}
	cands := make([]scored, 0, len(nodes))
	for i, n := range nodes {
		c, ok := byKey[n.Query.Key()]
		if !ok {
			continue
		}
		cands = append(cands, scored{i, c, c.Confidence - 0.001*float64(pos[i])})
	}
	sort.SliceStable(cands, func(a, b int) bool {
		if cands[a].blended != cands[b].blended {
			return cands[a].blended > cands[b].blended
		}
		return cands[a].cand.Query.Key() < cands[b].cand.Query.Key()
	})

	ans := &AskAnswer{
		Query:      r.Parsed.Query,
		Normalized: r.Parsed.Normalized,
		Unparsed:   r.Parsed.Unparsed,
	}
	for _, b := range r.Parsed.Bindings {
		ans.Bindings = append(ans.Bindings, AskBinding{Column: b.Column, Score: b.Score, Words: b.Words})
	}
	for _, a := range r.Ambiguities {
		ans.Ambiguities = append(ans.Ambiguities, AskAmbiguity{Slot: a.Slot, Options: a.Options})
	}
	for _, c := range cands {
		n := nodes[c.idx]
		v := newVisualization(n, scores[c.idx], len(ans.Results)+1)
		if factors != nil {
			v.attachFactors(factors[c.idx])
		}
		ans.Results = append(ans.Results, &AskResult{
			Visualization: v,
			Confidence:    c.cand.Confidence,
			Blended:       c.blended,
			Completions:   c.cand.Completions,
		})
		if len(ans.Results) == k {
			break
		}
	}
	return ans, nil
}

// askAnswerSize estimates the bytes a cached answer holds.
func askAnswerSize(a *AskAnswer) int64 {
	sz := int64(len(a.Query)+len(a.Normalized)) + 128
	for _, r := range a.Results {
		sz += vizSize(r.Visualization) + 64
		for _, c := range r.Completions {
			sz += int64(len(c))
		}
	}
	for _, b := range a.Bindings {
		sz += int64(len(b.Column)) + 32
	}
	return sz
}
