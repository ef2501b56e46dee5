package harness

import (
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

func TestArtifactRoundTrip(t *testing.T) {
	spec := Spec{Algorithm: HyFDName, Dataset: "bridges", Rows: 100, Metrics: true}
	res := ExecuteInProcess(context.Background(), spec)
	if res.Err != "" {
		t.Fatalf("measurement failed: %s", res.Err)
	}
	if res.Stats == nil || res.Stats.TotalTime <= 0 {
		t.Fatalf("HyFD result must carry stats with timings: %+v", res.Stats)
	}
	if res.Metrics == nil {
		t.Fatal("Spec.Metrics must embed a snapshot")
	}
	if _, ok := res.Metrics.Counter("hyfd_runs_total"); !ok {
		t.Fatal("snapshot missing engine counters")
	}

	exp := Experiment{ID: "testexp", Title: "artifact round-trip"}
	art := NewArtifact(exp, []Result{res})
	dir := t.TempDir()
	path, err := art.WriteFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(path, "BENCH_testexp.json") {
		t.Fatalf("unexpected artifact path %s", path)
	}
	back, err := ReadArtifactFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Experiment != "testexp" || back.GoVersion == "" || back.CreatedUnix == 0 {
		t.Fatalf("artifact metadata lost: %+v", back)
	}
	if len(back.Results) != 1 || back.Results[0].FDs != res.FDs {
		t.Fatalf("results lost: %+v", back.Results)
	}
	if back.Results[0].Stats == nil || back.Results[0].Stats.TotalTime != res.Stats.TotalTime {
		t.Fatal("stats did not survive the round trip")
	}
	if back.Results[0].Metrics == nil {
		t.Fatal("metrics snapshot did not survive the round trip")
	}

	// The stable field names of the artifact contract (EXPERIMENTS.md).
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"experiment", "title", "created_unix", "go_version", "goos", "goarch", "num_cpu", "results"} {
		if _, ok := doc[key]; !ok {
			t.Errorf("artifact missing %q", key)
		}
	}
	first := doc["results"].([]any)[0].(map[string]any)
	for _, key := range []string{"spec", "seconds", "fds", "peak_heap", "switches", "stats", "metrics"} {
		if _, ok := first[key]; !ok {
			t.Errorf("result missing %q", key)
		}
	}
	stats := first["stats"].(map[string]any)
	for _, key := range []string{"rows", "cols", "fd_count", "comparisons", "validations", "preprocessing_ns", "sampling_ns", "validation_ns", "total_ns"} {
		if _, ok := stats[key]; !ok {
			t.Errorf("stats missing %q", key)
		}
	}
}

func TestUnmeteredRunOmitsMetrics(t *testing.T) {
	res := ExecuteInProcess(context.Background(), Spec{Algorithm: HyFDName, Dataset: "bridges", Rows: 100})
	if res.Err != "" {
		t.Fatalf("measurement failed: %s", res.Err)
	}
	if res.Metrics != nil {
		t.Fatal("metrics snapshot present without Spec.Metrics")
	}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), `"metrics"`) {
		t.Fatalf("unmetered result serializes a metrics key:\n%s", data)
	}
}
