package hyfd_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"hyfd"
	"hyfd/internal/harness"
)

// metricsPin is what one metered run leaves in a fresh registry, minus
// what varies from run to run: every hyfd_* counter, the final value of
// every gauge but the Go runtime ones, every histogram's count, the sums of
// the two histograms that observe no durations, and, for the fd run, the
// type of every event in order.
type metricsPin struct {
	Counters map[string]int64   `json:"counters"`
	Gauges   map[string]float64 `json:"gauges"`
	Counts   map[string]int64   `json:"histogram_counts"`
	Sums     map[string]float64 `json:"histogram_sums"`
	Events   []string           `json:"events,omitempty"`
}

// pinnedSums names the histograms whose sums are deterministic: cluster
// sizes and window efficiencies, not wall-clock durations.
var pinnedSums = map[string]bool{
	"hyfd_pli_cluster_size":           true,
	"hyfd_sampling_window_efficiency": true,
}

// seriesKey renders a series as name{k="v",...} with sorted label keys.
func seriesKey(name string, labels map[string]string) string {
	if len(labels) == 0 {
		return name
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%q", k, labels[k])
	}
	return name + "{" + strings.Join(parts, ",") + "}"
}

func pinOf(snap hyfd.MetricsSnapshot) metricsPin {
	p := metricsPin{
		Counters: map[string]int64{},
		Gauges:   map[string]float64{},
		Counts:   map[string]int64{},
		Sums:     map[string]float64{},
	}
	for _, c := range snap.Counters {
		p.Counters[seriesKey(c.Name, c.Labels)] = c.Value
	}
	for _, g := range snap.Gauges {
		if !strings.HasPrefix(g.Name, "hyfd_go_") {
			p.Gauges[seriesKey(g.Name, g.Labels)] = g.Value
		}
	}
	for _, h := range snap.Histograms {
		key := seriesKey(h.Name, h.Labels)
		p.Counts[key] = h.Count
		if pinnedSums[h.Name] {
			p.Sums[key] = h.Sum
		}
	}
	return p
}

// abaloneCSV reads the abalone analog at 2,000 rows through the CSV path
// cmd/hyfd takes on the output of `datagen -dataset abalone -rows 2000`.
func abaloneCSV(t *testing.T) *hyfd.Relation {
	t.Helper()
	gen, err := harness.Materialize(harness.Spec{Dataset: "abalone", Rows: 2000})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := gen.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rel, err := hyfd.ReadCSV("abalone", &buf, hyfd.CSVOptions{Comma: ',', HasHeader: true, EmptyIsNull: true, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

// meteredRun runs the request with a fresh registry and an event recorder
// and returns the registry's pin and the run's event types. For an engine
// run it also checks that Stats holds the registry's counts.
func meteredRun(t *testing.T, req hyfd.Request) (metricsPin, []string) {
	t.Helper()
	reg := hyfd.NewMetricsRegistry()
	var events []string
	req.Options.Metrics = reg
	req.Options.Observer = hyfd.ObserverFunc(func(e hyfd.Event) {
		events = append(events, fmt.Sprintf("%T", e))
	})
	res, err := hyfd.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	p := pinOf(reg.Snapshot())
	if req.Mode != hyfd.ModeIncremental {
		s := res.Stats
		if s.Comparisons != p.Counters["hyfd_comparisons_total"] ||
			s.Validations != p.Counters["hyfd_validations_total"] ||
			int64(s.Observations) != p.Counters["hyfd_sampling_new_violations_total"] {
			t.Errorf("stats comparisons %d, validations %d, observations %d disagree with the registry %v",
				s.Comparisons, s.Validations, s.Observations, p.Counters)
		}
	}
	return p, events
}

// TestMetricsPinned pins every hyfd_* value of six metered runs on the
// abalone analog: cold fd runs at one and at two threads, which must agree,
// a ranked top-10 run, two runs whose memory budget makes the Guardian
// prune (the second prunes last of all, after its final validation), and
// an incremental run that inserts the last 500 rows into a snapshot of the
// first 1,500 and breaks base FDs. The fd run's event-type sequence is
// pinned too. The expected values in testdata/metrics_pin.json were
// recorded when the sampler, validator and guardian still wrote into the
// registry directly; the event stream must reproduce every one of them.
func TestMetricsPinned(t *testing.T) {
	want := loadPins(t)
	rel := abaloneCSV(t)
	runs := []struct {
		name, pin string
		req       hyfd.Request
		events    bool
	}{
		{"fd threads 1", "fd", hyfd.Request{Relation: rel, Options: hyfd.Options{Threads: 1}}, true},
		{"fd threads 2", "fd", hyfd.Request{Relation: rel, Options: hyfd.Options{Threads: 2}}, true},
		{"ranked top 10", "ranked", hyfd.Request{Relation: rel, Mode: hyfd.ModeRanked, TopK: 10, Options: hyfd.Options{Threads: 1}}, false},
		{"guardian", "guardian", hyfd.Request{Relation: rel, Options: hyfd.Options{Threads: 1, MemoryBudgetBytes: 6000}}, false},
		{"guardian last", "guardian_last", hyfd.Request{Relation: rel, Options: hyfd.Options{Threads: 1, MemoryBudgetBytes: 11500, EfficiencyThreshold: 0.5}}, false},
	}
	runs = append(runs, struct {
		name, pin string
		req       hyfd.Request
		events    bool
	}{"incremental", "incremental", incrementalRequest(t, rel, 500), false})
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			got, events := meteredRun(t, r.req)
			if r.events {
				got.Events = events
			}
			w, ok := want[r.pin]
			if !ok {
				t.Fatalf("no pinned values for %q", r.pin)
			}
			if !reflect.DeepEqual(got, w) {
				g, _ := json.MarshalIndent(got, "", "  ")
				t.Fatalf("metrics differ from the pin %q; got:\n%s", r.pin, g)
			}
		})
	}
	if want["guardian"].Counters["hyfd_guardian_interventions_total"] == 0 ||
		want["guardian_last"].Counters["hyfd_guardian_interventions_total"] == 0 ||
		want["incremental"].Counters["hyfd_incremental_breakable_total"] == 0 {
		t.Fatal("the pinned guardian run must prune and the incremental run must break FDs")
	}
}

// TestMetricsConcurrentRuns runs the pinned fd run four times at once into
// one registry, at one and two threads, as concurrent hyfdd jobs share one:
// every counter and histogram count must be four times its pinned value,
// so no run's bridge state leaks into another's.
func TestMetricsConcurrentRuns(t *testing.T) {
	want := loadPins(t)["fd"]
	rel := abaloneCSV(t)
	reg := hyfd.NewMetricsRegistry()
	const runs = 4
	errs := make([]error, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = hyfd.Run(context.Background(), hyfd.Request{
				Relation: rel, Options: hyfd.Options{Threads: 1 + i%2, Metrics: reg},
			})
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	got := pinOf(reg.Snapshot())
	for key, v := range want.Counters {
		if got.Counters[key] != runs*v {
			t.Errorf("%s = %d, want %d × %d", key, got.Counters[key], runs, v)
		}
	}
	for key, v := range want.Counts {
		if got.Counts[key] != runs*v {
			t.Errorf("%s count = %d, want %d × %d", key, got.Counts[key], runs, v)
		}
	}
}

// loadPins reads the pinned values of testdata/metrics_pin.json by run.
func loadPins(t *testing.T) map[string]metricsPin {
	t.Helper()
	raw, err := os.ReadFile("testdata/metrics_pin.json")
	if err != nil {
		t.Fatal(err)
	}
	var pins map[string]metricsPin
	if err := json.Unmarshal(raw, &pins); err != nil {
		t.Fatal(err)
	}
	return pins
}

// incrementalRequest holds back the last n rows of rel: it prepares the
// rest, discovers its cover, and returns the ModeIncremental request that
// inserts the held-back rows.
func incrementalRequest(t *testing.T, rel *hyfd.Relation, n int) hyfd.Request {
	t.Helper()
	ctx := context.Background()
	keep := rel.NumRows() - n
	ds, err := hyfd.Prepare(ctx, rel.Head(keep), hyfd.PrepareOptions{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	base, err := hyfd.Run(ctx, hyfd.Request{Dataset: ds})
	if err != nil {
		t.Fatal(err)
	}
	return hyfd.Request{
		Dataset: ds, Mode: hyfd.ModeIncremental, Base: base.Set,
		Delta:   &hyfd.Delta{Inserts: rel.Rows[keep:]},
		Options: hyfd.Options{Threads: 1},
	}
}
