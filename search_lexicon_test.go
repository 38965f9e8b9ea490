package deepeye

import (
	"reflect"
	"strings"
	"testing"

	"github.com/deepeye/deepeye/internal/chart"
	"github.com/deepeye/deepeye/internal/nlq"
)

// The keyword-Search vocabularies as they stood before the tables moved
// into internal/nlq. The differential tests below pin that the shared
// lexicon is entry-for-entry identical and that parseIntent behaves
// byte-for-byte as it did, so the NL front-end cannot silently shift
// Search semantics.
var (
	legacyChartVocabulary = map[string]chart.Type{
		"trend": chart.Line, "over": chart.Line, "timeline": chart.Line, "line": chart.Line,
		"proportion": chart.Pie, "share": chart.Pie, "percentage": chart.Pie, "pie": chart.Pie,
		"breakdown":   chart.Pie,
		"correlation": chart.Scatter, "correlate": chart.Scatter, "versus": chart.Scatter,
		"vs": chart.Scatter, "scatter": chart.Scatter, "relationship": chart.Scatter,
		"compare": chart.Bar, "comparison": chart.Bar, "distribution": chart.Bar,
		"histogram": chart.Bar, "bar": chart.Bar, "count": chart.Bar, "top": chart.Bar,
	}
	legacyUnitVocabulary = map[string]string{
		"minute": "MINUTE", "hourly": "HOUR", "hour": "HOUR", "daily": "DAY", "day": "DAY",
		"weekly": "WEEK", "week": "WEEK", "monthly": "MONTH", "month": "MONTH",
		"quarterly": "QUARTER", "quarter": "QUARTER", "yearly": "YEAR", "year": "YEAR",
		"annual": "YEAR",
	}
	legacyStopwords = map[string]bool{
		"by": true, "of": true, "the": true, "a": true, "an": true, "per": true,
		"for": true, "in": true, "show": true, "me": true, "and": true, "with": true,
	}
)

func TestSharedLexiconMatchesLegacySearchVocab(t *testing.T) {
	if got := nlq.ChartVocabulary(); !reflect.DeepEqual(got, legacyChartVocabulary) {
		t.Errorf("chart vocabulary drifted:\n got %v\nwant %v", got, legacyChartVocabulary)
	}
	if got := nlq.UnitVocabulary(); !reflect.DeepEqual(got, legacyUnitVocabulary) {
		t.Errorf("unit vocabulary drifted:\n got %v\nwant %v", got, legacyUnitVocabulary)
	}
	if got := nlq.SearchStopwords(); !reflect.DeepEqual(got, legacyStopwords) {
		t.Errorf("stopword set drifted:\n got %v\nwant %v", got, legacyStopwords)
	}
}

// legacyParseIntent is the pre-refactor parseIntent, verbatim, reading
// the legacy vocabulary copies above.
func legacyParseIntent(query string, t *Table) intent {
	in := intent{columns: map[string]float64{}, charts: map[chart.Type]bool{}}
	for _, word := range strings.Fields(strings.ToLower(query)) {
		word = strings.Trim(word, ".,;:!?\"'")
		if word == "" || legacyStopwords[word] {
			continue
		}
		if typ, ok := legacyChartVocabulary[word]; ok {
			in.charts[typ] = true
			continue
		}
		if u, ok := legacyUnitVocabulary[word]; ok {
			in.unit = u
		}
		for _, col := range t.Columns {
			name := strings.ToLower(col.Name)
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

func TestParseIntentDifferential(t *testing.T) {
	tab := smallFlights(t)
	queries := []string{
		"departure delay trend by hour",
		"passengers share by carrier",
		"departure_delay versus arrival_delay",
		"monthly passengers over time",
		"pie",
		"Show me the COUNT by carrier!",
		"zorp blimfle",
		"top carriers by delay",
		"year month day scheduled",
		"",
	}
	for _, q := range queries {
		got := parseIntent(searchWords(q), tab)
		want := legacyParseIntent(q, tab)
		if !reflect.DeepEqual(got.columns, want.columns) {
			t.Errorf("parseIntent(%q) columns = %v, want %v", q, got.columns, want.columns)
		}
		if !reflect.DeepEqual(got.charts, want.charts) {
			t.Errorf("parseIntent(%q) charts = %v, want %v", q, got.charts, want.charts)
		}
		if got.unit != want.unit {
			t.Errorf("parseIntent(%q) unit = %q, want %q", q, got.unit, want.unit)
		}
	}
}
