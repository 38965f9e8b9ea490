package deepeye

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"github.com/deepeye/deepeye/internal/cache"
	"github.com/deepeye/deepeye/internal/chart"
	"github.com/deepeye/deepeye/internal/nlq"
	"github.com/deepeye/deepeye/internal/vizql"
)

// Search finds the top-k visualizations matching a keyword query — the
// keyword-driven interface the paper names as its major future work
// (§VIII, realized in the DeepEye demo companions [25, 26]). Keywords
// are matched against column names (exact, prefix, and substring) and
// against chart-intent vocabulary ("trend" → line, "proportion" → pie,
// "correlation" → scatter, "compare"/"distribution" → bar, plus
// granularity words like "monthly" or "hourly"); candidates are ranked
// by keyword affinity blended with the partial-order score.
//
//	sys.Search(tab, "delay trend by hour", 3)
//	sys.Search(tab, "passengers share by carrier", 3)
func (s *System) Search(t *Table, query string, k int) ([]*Visualization, error) {
	return s.SearchCtx(context.Background(), t, query, k)
}

// SearchCtx is Search with cancellation threaded through candidate
// generation and ranking. Search re-weights the ranked candidate set
// that TopK builds, so it reads the same k-independent rank cache entry
// and never ranks a table TopK has already ranked. With
// Options.CacheSize set, answers are memoized by (table fingerprint, k,
// normalized keywords, options), as Ask memoizes its answers.
func (s *System) SearchCtx(ctx context.Context, t *Table, query string, k int) ([]*Visualization, error) {
	if k <= 0 {
		return nil, fmt.Errorf("deepeye: k must be positive, got %d", k)
	}
	if t == nil {
		return nil, fmt.Errorf("deepeye: empty table")
	}
	words := searchWords(query)
	intent := parseIntent(words, t)
	if len(intent.columns) == 0 && len(intent.charts) == 0 && intent.unit == "" {
		return nil, fmt.Errorf("deepeye: query %q matches no columns or chart intents: %w", query, ErrNoIntent)
	}
	if s.cache == nil {
		return s.searchCompute(ctx, t, query, intent, k)
	}
	key := fmt.Sprintf("search|%s|%d|%q|%s", t.Fingerprint(), k, strings.Join(words, " "), s.optionsKey())
	v, _, err := s.cache.Do(ctx, key, func(ctx context.Context) (any, int64, error) {
		cache.PrimeTable(s.cache, t)
		vs, err := s.searchCompute(ctx, t, query, intent, k)
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

// searchCompute blends keyword affinity into the shared ranked
// candidate set and keeps the best match per diversity key.
func (s *System) searchCompute(ctx context.Context, t *Table, query string, in intent, k int) ([]*Visualization, error) {
	nodes, ranking, err := s.rankedCandidatesCtx(ctx, t)
	if err != nil {
		return nil, err
	}
	// Normalize the base ranking to positions so keyword affinity and
	// ranking quality combine on comparable scales.
	pos := make([]int, len(nodes))
	for p, idx := range ranking.Order {
		pos[idx] = p
	}
	type scored struct {
		idx      int
		affinity float64
	}
	var cands []scored
	for i, n := range nodes {
		a := in.affinity(n)
		if a <= 0 {
			continue
		}
		// Blend: affinity dominates, base rank breaks ties.
		cands = append(cands, scored{i, a - 0.001*float64(pos[i])})
	}
	if len(cands) == 0 {
		return nil, fmt.Errorf("deepeye: no visualization matches %q", query)
	}
	sort.SliceStable(cands, func(a, b int) bool { return cands[a].affinity > cands[b].affinity })

	seen := map[string]bool{}
	var out []*Visualization
	for _, c := range cands {
		n := nodes[c.idx]
		key := diversityKey(n)
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, newVisualization(n, ranking.Scores[c.idx], len(out)+1))
		if len(out) == k {
			break
		}
	}
	return out, nil
}

// intent is the parsed meaning of a keyword query.
type intent struct {
	columns map[string]float64 // column name -> match strength
	charts  map[chart.Type]bool
	unit    string // granularity keyword ("month", "hour", …)
}

// searchWords normalizes a keyword query to the words parseIntent
// reads, in order: lower-cased, stripped of punctuation, stopwords
// dropped. Queries with the same words have the same intent on every
// table, so the joined words key the search answer cache.
func searchWords(query string) []string {
	var words []string
	for _, word := range strings.Fields(strings.ToLower(query)) {
		word = strings.Trim(word, ".,;:!?\"'")
		if word != "" && !nlq.SearchStopword(word) {
			words = append(words, word)
		}
	}
	return words
}

// parseIntent reads a keyword query's words against the shared NL
// lexicon (internal/nlq holds the chart-intent, granularity, and
// stopword vocabularies, single-sourced with the sentence-level Ask
// parser).
func parseIntent(words []string, t *Table) intent {
	in := intent{columns: map[string]float64{}, charts: map[chart.Type]bool{}}
	for _, word := range words {
		if typ, ok := nlq.ChartWord(word); ok {
			in.charts[typ] = true
			continue
		}
		if u, ok := nlq.UnitKeyword(word); ok {
			in.unit = u
			// "month"/"year" can also be column names; fall through.
		}
		for _, col := range t.Columns {
			name := strings.ToLower(col.Name)
			// Evidence accumulates per word, so "departure delay" binds
			// more strongly to departure_delay than "delay" alone does to
			// arrival_delay.
			switch {
			case name == word:
				in.columns[col.Name] += 1.0
			case strings.HasPrefix(name, word) || strings.HasPrefix(word, name):
				in.columns[col.Name] += 0.8
			case strings.Contains(name, word) || strings.Contains(word, name):
				in.columns[col.Name] += 0.6
			}
		}
	}
	for name, w := range in.columns {
		in.columns[name] = min64(w, 1.6)
	}
	return in
}

// affinity scores how well a candidate matches the intent; 0 means no
// match at all.
func (in intent) affinity(n *vizql.Node) float64 {
	var a float64
	matched := false
	if w, ok := in.columns[n.XName]; ok {
		a += w
		matched = true
	}
	if n.YName != n.XName {
		if w, ok := in.columns[n.YName]; ok {
			a += w
			matched = true
		}
	}
	if len(in.charts) > 0 {
		if in.charts[n.Chart] {
			a += 0.7
			matched = true
		} else if len(in.columns) == 0 {
			return 0 // chart-only query: wrong type is a non-match
		}
	}
	if in.unit != "" && strings.Contains(n.Query.Spec.String(), in.unit) {
		a += 0.9
		matched = true
	}
	if !matched {
		return 0
	}
	// When the query names two or more columns *strongly* (exact or
	// multi-word evidence), charts missing one of them are demoted — but
	// weak substring matches ("delay" brushing arrival_delay) don't
	// create requirements.
	var required []string
	for name, w := range in.columns {
		if w >= 1.0 {
			required = append(required, name)
		}
	}
	if len(required) >= 2 {
		hits := 0
		for _, name := range required {
			if n.XName == name || n.YName == name {
				hits++
			}
		}
		if hits < 2 {
			a *= 0.3
		}
	}
	return a
}

func min64(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
