package metrics

import (
	"runtime"
	"testing"
	"time"

	"hyfd/internal/trace"
)

func TestEngineMetricsIdempotent(t *testing.T) {
	r := NewRegistry()
	a := NewEngineMetrics(r)
	b := NewEngineMetrics(r)
	a.Comparisons.Add(10)
	if b.Comparisons.Value() != 10 {
		t.Fatal("EngineMetrics on the same registry must share instruments")
	}
}

func TestEngineMetricsNilObserver(t *testing.T) {
	var m *EngineMetrics
	if m.Observer() != nil {
		t.Fatal("nil EngineMetrics must yield a nil observer")
	}
}

func TestEngineObserverBridgesEvents(t *testing.T) {
	r := NewRegistry()
	m := NewEngineMetrics(r)
	obs := m.Observer()

	obs.Observe(trace.PLIBuilt{Attr: 0, Clusters: 4, Sizes: trace.NewClusterSizes([][]int32{{0, 1}, {2, 3, 4}})})
	obs.Observe(trace.PreprocessingDone{Rows: 10, Cols: 3, Duration: time.Millisecond})
	obs.Observe(trace.SamplingRound{Round: 1, NewObservations: 4, Comparisons: 100, Windows: 3,
		Efficiencies: []float64{0.5, 0.25}, FootprintBytes: 640, Duration: 2 * time.Millisecond})
	obs.Observe(trace.PhaseSwitch{From: trace.PhaseSampling, To: trace.PhaseValidation, Switches: 0})
	obs.Observe(trace.ValidationLevel{Level: 1, Candidates: 9, Valid: 6, Invalid: 3, Suggestions: 2,
		Validations: 5, FootprintBytes: 960, Duration: time.Millisecond})
	obs.Observe(trace.PhaseSwitch{From: trace.PhaseValidation, To: trace.PhaseSampling, Switches: 1})
	// Round counts are cumulative: the bridge adds the increments.
	obs.Observe(trace.SamplingRound{Round: 2, NewObservations: 1, Comparisons: 130, Windows: 5,
		Efficiencies: []float64{0.125}, FootprintBytes: 1024, Duration: time.Millisecond})
	obs.Observe(trace.GuardianPrune{MaxLhs: 3, Interventions: 1, FootprintBytes: 512})
	obs.Observe(trace.RankedResult{Rank: 1, TopK: 2, Duration: time.Millisecond})
	obs.Observe(trace.RankedResult{Rank: 2, TopK: 2, Duration: 2 * time.Millisecond})
	obs.Observe(trace.Done{FDs: 12, Duration: 5 * time.Millisecond})
	obs.Observe(trace.IncrementalDone{BaseFDs: 12, Breakable: 2, Checks: 0, Specialized: 1, FDs: 13})

	checks := []struct {
		name string
		got  int64
		want int64
	}{
		{"sampling rounds", m.SamplingRounds.Value(), 2},
		{"new violations", m.NewViolations.Value(), 5},
		{"comparisons", m.Comparisons.Value(), 130},
		{"windows", m.SamplingWindows.Value(), 5},
		{"validation levels", m.ValidationLevels.Value(), 1},
		{"valid candidates", m.ValidCandidates.Value(), 6},
		{"invalid candidates", m.InvalidCandidates.Value(), 3},
		{"validations", m.Validations.Value(), 5},
		{"suggestions", m.Suggestions.Value(), 2},
		{"phase switches", m.PhaseSwitches.Value(), 1},
		{"guardian interventions", m.GuardianInterventions.Value(), 1},
		{"ranked emitted", m.RankedEmitted.Value(), 2},
		{"runs", m.Runs.Value(), 1},
		{"plis built", m.PLIsBuilt.Value(), 1},
		{"breakable", m.IncrementalBreakable.Value(), 2},
		{"specialized", m.IncrementalSpecialized.Value(), 1},
		{"cluster sizes", m.PLIClusterSize.Count(), 2},
		{"window efficiencies", m.SamplingWindowEfficiency.Count(), 3},
		{"time to top-k", m.RankedTimeToTopK.Count(), 1},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
	if m.FDsDiscovered.Value() != 13 {
		t.Errorf("fds gauge = %g, want 13", m.FDsDiscovered.Value())
	}
	if m.FDTreeBytes.Value() != 512 {
		t.Errorf("fdtree bytes = %g, want the prune's 512", m.FDTreeBytes.Value())
	}
	if m.PLIClusterSize.Sum() != 5 || m.SamplingWindowEfficiency.Sum() != 0.875 {
		t.Errorf("cluster size sum %g, efficiency sum %g; want 5 and 0.875",
			m.PLIClusterSize.Sum(), m.SamplingWindowEfficiency.Sum())
	}
	if m.RunDuration.Count() != 1 || m.SamplingRoundDuration.Count() != 2 ||
		m.ValidationLevelDuration.Count() != 1 || m.PreprocessingDuration.Count() != 1 {
		t.Error("duration histograms not fed")
	}
	// A second run's stream restarts at round 1, and its counts with it.
	obs.Observe(trace.SamplingRound{Round: 1, Comparisons: 7, Windows: 1})
	if m.Comparisons.Value() != 137 || m.SamplingWindows.Value() != 6 {
		t.Errorf("after a new stream: comparisons %d, windows %d; want 137 and 6",
			m.Comparisons.Value(), m.SamplingWindows.Value())
	}
	// Runtime gauges are sampled on every event: after a forced collection
	// the GC-cycle gauge reads what runtime.ReadMemStats reports. A
	// collection between the two reads moves NumGC, so retry a few times.
	var ms runtime.MemStats
	for try := 0; try < 5; try++ {
		runtime.GC()
		obs.Observe(trace.PhaseSwitch{})
		runtime.ReadMemStats(&ms)
		if m.GCCycles.Value() == float64(ms.NumGC) {
			break
		}
	}
	if m.GCCycles.Value() != float64(ms.NumGC) {
		t.Errorf("gc cycles gauge = %g, want NumGC %d", m.GCCycles.Value(), ms.NumGC)
	}
	if m.HeapInuse.Value() <= 0 || m.Goroutines.Value() <= 0 {
		t.Error("runtime gauges not sampled")
	}
}
