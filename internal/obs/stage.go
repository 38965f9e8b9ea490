package obs

import "time"

// StageMetric is the histogram family per-stage pipeline timings are
// recorded under.
const StageMetric = "deepeye_stage_duration_seconds"

const stageHelp = "Selection pipeline stage latency in seconds."

// Pipeline stage names reported by the selection pipeline.
const (
	StageEnumerate = "enumerate" // candidate query generation
	StageExecute   = "execute"   // candidate materialization
	StageRank      = "rank"      // factor computation + dominance ranking
	StageSuggest   = "suggest"   // multi-series suggestion end to end
	StageAppend    = "append"    // live-dataset row ingestion (parse + stats + fingerprint)
	StageSnapshot  = "snapshot"  // live-dataset epoch snapshot materialization
)

// ObserveStage records one stage duration into the Default registry.
func ObserveStage(stage string, d time.Duration) {
	Default.Histogram(StageMetric, stageHelp, nil, "stage", stage).Observe(d)
}

// StageTimer starts timing a stage; the returned stop function records
// the elapsed duration into the Default registry.
//
//	defer obs.StageTimer(obs.StageRank)()
func StageTimer(stage string) func() {
	start := time.Now()
	return func() { ObserveStage(stage, time.Since(start)) }
}

// StageSummaries reports the Default registry's per-stage timing
// summaries (for the CLI's -stats flag).
func StageSummaries() []HistogramSummary {
	return Default.HistogramSummaries(StageMetric)
}
