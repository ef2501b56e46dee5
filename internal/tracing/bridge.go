package tracing

import (
	"hyfd/internal/trace"
)

// Observer bridges the engine's trace.Observer event vocabulary into this
// recorder: each event that carries a duration becomes a completed span
// ending at its arrival time (engine events report their timing only on
// completion), and point events become instant markers. All spans are
// parented under parent — typically the job's "run" span — so the
// discovery phases land in the same timeline as the server stages.
//
// A nil Recorder returns a nil Observer, which trace.Emit and trace.Multi
// both treat as "unobserved": the untraced path costs nothing.
func (r *Recorder) Observer(parent SpanID) trace.Observer {
	if r == nil {
		return nil
	}
	return &bridge{rec: r, parent: parent}
}

// bridge adapts one recorder to the trace.Observer interface. Observers are
// invoked synchronously from the engine's coordinating goroutine, so the
// per-event work stays minimal: one ring insertion.
type bridge struct {
	rec    *Recorder
	parent SpanID
}

// Span names of the bridged engine events. The server stages use
// "admission", "queue.wait", "run", and "encode"; together these form the
// serving path's complete span vocabulary (DESIGN.md §2g).
const (
	SpanIngest          = "ingest"
	SpanPrepare         = "prepare"
	SpanPreparePLI      = "prepare.pli"
	SpanSamplingRound   = "sampling.round"
	SpanValidationLevel = "validation.level"
	SpanPhaseSwitch     = "phase.switch"
	SpanGuardianPrune   = "guardian.prune"
	SpanRankedResult    = "ranked.result"
	SpanEngineDone      = "engine.done"
	SpanDeltaApply      = "delta.apply"
	SpanIncrDone        = "incremental.done"
)

// Observe implements trace.Observer.
func (b *bridge) Observe(e trace.Event) {
	switch ev := e.(type) {
	case trace.IngestDone:
		b.rec.Completed(SpanIngest, b.parent, ev.Duration,
			Int("rows", ev.Rows), Int("cols", ev.Cols), Int("threads", ev.Threads))
	case trace.PLIBuilt:
		b.rec.Completed(SpanPreparePLI, b.parent, ev.Duration,
			Int("attr", ev.Attr), Int("clusters", ev.Clusters))
	case trace.PreprocessingDone:
		b.rec.Completed(SpanPrepare, b.parent, ev.Duration,
			Int("rows", ev.Rows), Int("cols", ev.Cols),
			Int("threads", ev.Threads), Bool("warm", ev.Warm))
	case trace.SamplingRound:
		b.rec.Completed(SpanSamplingRound, b.parent, ev.Duration,
			Int("round", ev.Round),
			Int("new_observations", ev.NewObservations),
			Int64("comparisons", ev.Comparisons),
			Int64("windows", ev.Windows),
			Float("threshold", ev.Threshold),
			Bool("all_pairs", ev.AllPairs),
			Int64("induction_ns", ev.Induction.Nanoseconds()))
	case trace.PhaseSwitch:
		b.rec.Instant(SpanPhaseSwitch, b.parent,
			String("from", ev.From.String()), String("to", ev.To.String()),
			Int("switches", ev.Switches))
	case trace.ValidationLevel:
		b.rec.Completed(SpanValidationLevel, b.parent, ev.Duration,
			Int("level", ev.Level), Int("candidates", ev.Candidates),
			Int("valid", ev.Valid), Int("invalid", ev.Invalid),
			Int("suggestions", ev.Suggestions), Int("validations", ev.Validations),
			Int("refinements", ev.Refinements), Int("fallbacks", ev.Fallbacks))
	case trace.GuardianPrune:
		b.rec.Instant(SpanGuardianPrune, b.parent,
			Int("max_lhs", ev.MaxLhs), Int("interventions", ev.Interventions),
			Int64("footprint_bytes", ev.FootprintBytes))
	case trace.RankedResult:
		b.rec.Instant(SpanRankedResult, b.parent,
			Int("rank", ev.Rank), Float("score", ev.Score), Int("rhs", ev.Rhs))
	case trace.Done:
		b.rec.Instant(SpanEngineDone, b.parent, Int("fds", ev.FDs))
	case trace.DeltaApplied:
		b.rec.Completed(SpanDeltaApply, b.parent, ev.Duration,
			Int("version", ev.Version), Int("inserts", ev.Inserts),
			Int("deletes", ev.Deletes), Int("rows", ev.Rows),
			Int("shared_attrs", ev.SharedAttrs))
	case trace.IncrementalDone:
		b.rec.Completed(SpanIncrDone, b.parent, ev.Duration,
			Int("base_fds", ev.BaseFDs), Int("breakable", ev.Breakable),
			Int("fds", ev.FDs), Int("checks", ev.Checks),
			Int("specialized", ev.Specialized))
	}
}
