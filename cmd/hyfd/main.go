// Command hyfd discovers all minimal, non-trivial functional dependencies
// of a CSV file using HyFD or any of the seven baseline algorithms from the
// paper's evaluation. It can additionally report approximate FDs, unique
// column combinations, candidate keys, and a BCNF decomposition — the
// use-case layer the paper motivates.
//
// Usage:
//
//	hyfd [flags] file.csv
//	cat file.csv | hyfd [flags] -
//
// Examples:
//
//	hyfd -stats data.csv
//	hyfd -algorithm Tane -sep ';' -null-literal NULL data.csv
//	hyfd -threads 8 -max-lhs 4 wide.csv
//	hyfd -progress -timeout 30s big.csv
//	hyfd -metrics-addr :9090 -progress big.csv
//	hyfd -stats-json - -no-fds data.csv
//	hyfd -uccs -keys -bcnf orders.csv
//	hyfd -approx 0.05 dirty.csv
//	hyfd -top-k 5 -progress big.csv
//
// With -metrics-addr the process serves Prometheus text exposition on
// /metrics, a JSON snapshot on /metrics.json, and the standard Go profiler
// on /debug/pprof/ for the lifetime of the run; the bound address is
// announced on stderr. With -stats-json the run's statistics (and, for
// HyFD, the full metrics snapshot) are written as one JSON document.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"strings"
	"time"

	"hyfd"
	"hyfd/internal/closure"
	"hyfd/internal/logging"
	"hyfd/internal/metrics"
)

func main() {
	var (
		algorithm   = flag.String("algorithm", hyfd.AlgorithmHyFD, "discovery algorithm: "+strings.Join(hyfd.Algorithms(), ", "))
		sep         = flag.String("sep", ",", "CSV field separator (single character)")
		noHeader    = flag.Bool("no-header", false, "treat the first CSV record as data, not column names")
		nullLiteral = flag.String("null-literal", "", "additional token parsed as NULL (empty fields always are)")
		nullNeq     = flag.Bool("null-neq", false, "use null≠null semantics instead of the default null=null")
		threads     = flag.Int("threads", 0, "worker threads for parsing, preprocessing, sampling and validation: 0 = all CPUs, 1 = single-threaded")
		threshold   = flag.Float64("threshold", 0, "efficiency threshold, 0 = paper default 0.01 (HyFD only)")
		maxLhs      = flag.Int("max-lhs", 0, "limit result LHS size, 0 = unbounded")
		memBudget   = flag.Int("memory-budget-mb", 0, "memory Guardian budget in MB, 0 = disabled (HyFD only)")
		timeout     = flag.Duration("timeout", 0, "abort discovery after this duration (e.g. 30s), 0 = no limit")
		progress    = flag.Bool("progress", false, "stream per-phase progress events to stderr (HyFD only)")
		stats       = flag.Bool("stats", false, "print run statistics to stderr")
		statsJSON   = flag.String("stats-json", "", "write run statistics as JSON to this file (- for stdout)")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics, /metrics.json and /debug/pprof on this address while running")
		indices     = flag.Bool("indices", false, "print attribute indices instead of column names")
		noFds       = flag.Bool("no-fds", false, "suppress the FD listing (useful with the flags below)")
		jsonOut     = flag.Bool("json", false, "emit the FDs as JSON ({determinant, dependant} objects)")
		topK        = flag.Int("top-k", 0, "rank FDs by redundancy score and return only the k best, terminating early (HyFD only; 0 = off)")
		minScore    = flag.Float64("min-score", 0, "with ranked discovery, drop results scoring below this floor (0 = off)")
		approx      = flag.Float64("approx", -1, "also report approximate FDs with g3 error <= this threshold")
		uccs        = flag.Bool("uccs", false, "also report minimal unique column combinations")
		keys        = flag.Bool("keys", false, "also report candidate keys derived from the FDs")
		bcnf        = flag.Bool("bcnf", false, "also report a BCNF decomposition derived from the FDs")
		logLevel    = flag.String("log-level", "info", "log level for process diagnostics on stderr: debug, info, warn, error")
		logFormat   = flag.String("log-format", "text", "log format: text, json")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: hyfd [flags] file.csv (use - for stdin)")
		flag.PrintDefaults()
		os.Exit(2)
	}
	if *threads < 0 {
		fmt.Fprintf(os.Stderr, "hyfd: invalid -threads %d: must be 0 (all CPUs) or positive\n", *threads)
		os.Exit(2)
	}
	comma := []rune(*sep)
	if len(comma) != 1 {
		fmt.Fprintf(os.Stderr, "hyfd: invalid -sep %q: must be a single character\n", *sep)
		os.Exit(2)
	}
	if *topK < 0 || *minScore < 0 {
		fmt.Fprintln(os.Stderr, "hyfd: -top-k and -min-score must be >= 0")
		os.Exit(2)
	}
	ranked := *topK > 0 || *minScore > 0
	if ranked {
		if *algorithm != hyfd.AlgorithmHyFD {
			fmt.Fprintln(os.Stderr, "hyfd: ranked discovery (-top-k/-min-score) supports only the HyFD engine")
			os.Exit(2)
		}
		if *jsonOut || *keys || *bcnf {
			fmt.Fprintln(os.Stderr, "hyfd: -json, -keys and -bcnf need the full FD cover; drop -top-k/-min-score")
			os.Exit(2)
		}
	}
	logger, err := logging.New(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hyfd:", err)
		os.Exit(2)
	}
	workers := *threads
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	ns := hyfd.NullEqualsNull
	if *nullNeq {
		ns = hyfd.NullNotEqualsNull
	}
	opts := hyfd.Options{
		NullSemantics:       ns,
		Threads:             *threads,
		EfficiencyThreshold: *threshold,
		MaxLhsSize:          *maxLhs,
		MemoryBudgetBytes:   *memBudget << 20,
	}
	// The HTTP endpoints and the JSON report read the metrics registry, so
	// either flag arms one; -progress renders the event stream alone. Setup
	// precedes ingest so the ingest event below reaches the same sinks as
	// the engine's own events.
	var reg *hyfd.MetricsRegistry
	if *metricsAddr != "" || *statsJSON != "" {
		reg = hyfd.NewMetricsRegistry()
		opts.Metrics = reg
	}
	if *metricsAddr != "" {
		// The deferred shutdown drains in-flight scrapes before the process
		// exits instead of tearing the listener down mid-response.
		defer serveMetrics(*metricsAddr, reg, logger)()
	}
	if *progress {
		opts.Observer = progressObserver(os.Stderr, time.Now())
	}

	csvOpts := hyfd.CSVOptions{
		Comma:       comma[0],
		HasHeader:   !*noHeader,
		EmptyIsNull: true,
		NullLiteral: *nullLiteral,
		Threads:     *threads,
	}
	ingestStart := time.Now()
	var rel *hyfd.Relation
	if path := flag.Arg(0); path == "-" {
		rel, err = hyfd.ReadCSV("stdin", os.Stdin, csvOpts)
	} else {
		rel, err = hyfd.ReadCSVFile(path, csvOpts)
	}
	fatalIf(err)
	if obs := hyfd.MultiObserver(metrics.NewEngineMetrics(reg).Observer(), opts.Observer); obs != nil {
		obs.Observe(hyfd.IngestDone{
			Rows: rel.NumRows(), Cols: rel.NumCols(),
			Threads: workers, Duration: time.Since(ingestStart),
		})
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// Prepare once, then fan every requested analysis (discovery, -approx,
	// -uccs) out over the shared Dataset: the PLI build is paid a single
	// time no matter how many reports the invocation asks for.
	ds, err := hyfd.Prepare(ctx, rel, hyfd.PrepareOptions{
		NullSemantics: ns,
		Threads:       *threads,
		Observer:      opts.Observer,
		Metrics:       reg,
	})
	fatalIf(err)
	request := hyfd.Request{Dataset: ds, Algorithm: *algorithm, Options: opts}
	if ranked {
		request = hyfd.Request{Dataset: ds, Mode: hyfd.ModeRanked, TopK: *topK, MinScore: *minScore, Options: opts}
	}
	result, err := hyfd.Run(ctx, request)
	fatalIf(err)

	render := func(lhs hyfd.AttrSet) string {
		if *indices {
			return lhs.String()
		}
		var names []string
		lhs.ForEach(func(a int) bool {
			names = append(names, rel.Columns[a])
			return true
		})
		return "[" + strings.Join(names, ",") + "]"
	}

	if !*noFds {
		switch {
		case ranked:
			for _, r := range result.Ranked {
				if *indices {
					fmt.Printf("%3d  %.6g  %s\n", r.Rank, r.Score, r.FD.String())
				} else {
					fmt.Printf("%3d  %.6g  %s\n", r.Rank, r.Score, r.FD.Format(rel))
				}
			}
		case *jsonOut:
			fatalIf(result.Set.WriteJSON(os.Stdout, rel))
		default:
			for _, f := range result.FDs {
				if *indices {
					fmt.Println(f.String())
				} else {
					fmt.Println(f.Format(rel))
				}
			}
		}
	}

	if *approx >= 0 {
		ares, err := hyfd.Run(ctx, hyfd.Request{
			Dataset: ds, Mode: hyfd.ModeAFD, MaxError: *approx,
			Options: hyfd.Options{MaxLhsSize: *maxLhs},
		})
		fatalIf(err)
		fmt.Printf("\napproximate FDs (g3 <= %g):\n", *approx)
		for _, a := range ares.AFDs {
			if *indices {
				fmt.Printf("  %s\n", a.String())
			} else {
				fmt.Printf("  %s -> %s (g3=%.4f)\n", render(a.Lhs), rel.Columns[a.Rhs], a.Error)
			}
		}
	}

	if *uccs {
		ures, err := hyfd.Run(ctx, hyfd.Request{
			Dataset: ds, Mode: hyfd.ModeUCC,
			Options: hyfd.Options{MaxLhsSize: *maxLhs},
		})
		fatalIf(err)
		fmt.Println("\nminimal unique column combinations:")
		for _, u := range ures.UCCs {
			fmt.Printf("  %s\n", render(u))
		}
	}

	if *keys {
		fmt.Println("\ncandidate keys:")
		for _, k := range closure.CandidateKeys(result.Set, rel.NumCols()) {
			fmt.Printf("  %s\n", render(k))
		}
	}

	if *bcnf {
		fmt.Println("\nBCNF decomposition:")
		for _, sub := range closure.BCNF(result.Set, rel.NumCols()) {
			fmt.Printf("  R%s with key %s\n", render(sub.Attrs), render(sub.Key))
		}
	}

	if *statsJSON != "" {
		fatalIf(writeStatsJSON(*statsJSON, rel.Name, *algorithm, result, ds.PreprocessingTime(), reg))
	}

	if *stats {
		fmt.Fprintf(os.Stderr, "dataset: %s (%d rows, %d columns)\n", rel.Name, rel.NumRows(), rel.NumCols())
		if ranked {
			fmt.Fprintf(os.Stderr, "ranked fds: %d\n", len(result.Ranked))
		} else {
			fmt.Fprintf(os.Stderr, "fds: %d\n", len(result.FDs))
		}
		if s := result.Stats; s != nil {
			fmt.Fprintf(os.Stderr, "phase switches: %d, sampling rounds: %d\n", s.PhaseSwitches, s.SamplingRounds)
			fmt.Fprintf(os.Stderr, "comparisons: %d (all pairs: %t), validations: %d, observations: %d\n",
				s.Comparisons, s.AllPairs, s.Validations, s.Observations)
			if s.TotalTime > 0 {
				fmt.Fprintf(os.Stderr, "time: %s total (preprocessing %s, sampling %s incl. induction %s, validation %s)\n",
					s.TotalTime.Round(time.Millisecond), s.PreprocessingTime.Round(time.Millisecond),
					s.SamplingTime.Round(time.Millisecond), s.InductionTime.Round(time.Millisecond),
					s.ValidationTime.Round(time.Millisecond))
			}
			if s.Warm {
				fmt.Fprintf(os.Stderr, "prepare: %s (dataset prepared once, reused by the run)\n",
					ds.PreprocessingTime().Round(time.Millisecond))
			}
			if !s.Complete {
				if ranked {
					fmt.Fprintln(os.Stderr, "NOTE: ranked run terminated early — the requested top of the ranking was provably stable")
				} else {
					fmt.Fprintf(os.Stderr, "NOTE: result pruned to LHS size <= %d (memory guardian / max-lhs)\n", s.MaxLhs)
				}
			}
		}
	}
}

// serveMetrics binds the address and serves the observability endpoints in
// the background. Binding before discovery starts (and announcing the
// resolved address on stderr) lets scrapers and the e2e tests attach while
// the run is still in flight. The returned function shuts the listener down
// gracefully, draining in-flight scrapes for up to two seconds.
func serveMetrics(addr string, reg *hyfd.MetricsRegistry, logger *slog.Logger) (shutdown func()) {
	ln, err := net.Listen("tcp", addr)
	fatalIf(err)
	reg.Gauge("hyfd_up", "Always 1 while the hyfd process serves metrics.").Set(1)
	mux := http.NewServeMux()
	mux.Handle("/metrics", metrics.Handler(reg))
	mux.Handle("/metrics.json", metrics.JSONHandler(reg))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	logger.Info("metrics serving", "url", fmt.Sprintf("http://%s/metrics", ln.Addr()))
	srv := newMetricsServer(mux)
	done := make(chan struct{})
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			logger.Error("metrics server failed", "error", err)
		}
		close(done)
	}()
	return func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		<-done
	}
}

// The metrics server's connection timeouts. A client that never finishes
// its request headers, or leaves a keep-alive connection idle, is cut off.
// Bodies and responses get no deadline, so /debug/pprof/profile?seconds=30
// and /debug/pprof/trace still complete.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newMetricsServer wraps the observability mux in an http.Server with the
// connection timeouts set.
func newMetricsServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

// runReport is the -stats-json document: the run's Stats under their stable
// JSON names, plus the full metrics snapshot when the run was metered.
type runReport struct {
	Dataset   string `json:"dataset"`
	Algorithm string `json:"algorithm"`
	FDs       int    `json:"fds"`
	// PrepareNs is the one-off Dataset preparation cost the warm run
	// excludes from its own Stats timings.
	PrepareNs int64                 `json:"prepare_ns,omitempty"`
	Stats     *hyfd.Stats           `json:"stats"`
	Metrics   *hyfd.MetricsSnapshot `json:"metrics,omitempty"`
}

func writeStatsJSON(path, dataset, algorithm string, result *hyfd.Result, prep time.Duration, reg *hyfd.MetricsRegistry) error {
	fds := len(result.FDs)
	if result.Ranked != nil {
		fds = len(result.Ranked)
	}
	report := runReport{
		Dataset:   dataset,
		Algorithm: algorithm,
		FDs:       fds,
		PrepareNs: prep.Nanoseconds(),
		Stats:     result.Stats,
	}
	if reg != nil && algorithm == hyfd.AlgorithmHyFD {
		snap := reg.Snapshot()
		report.Metrics = &snap
	}
	out := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(report)
}

// progressObserver renders the engine's trace events as human-readable
// progress lines. Sampling rounds and validation levels end in cumulative
// throughput rates since start: comparisons/s from the round's cumulative
// count, validations/s from the levels' counts summed so far.
func progressObserver(w *os.File, start time.Time) hyfd.Observer {
	var validations int64
	rate := func(count int64, unit string) string {
		elapsed := time.Since(start).Seconds()
		if elapsed <= 0 {
			return ""
		}
		return fmt.Sprintf(" (%s %s)", humanRate(float64(count)/elapsed), unit)
	}
	return hyfd.ObserverFunc(func(e hyfd.Event) {
		switch ev := e.(type) {
		case hyfd.IngestDone:
			fmt.Fprintf(w, "ingested %d rows x %d cols (%d threads) in %s\n",
				ev.Rows, ev.Cols, ev.Threads, ev.Duration.Round(time.Millisecond))
		case hyfd.PreprocessingDone:
			if ev.Warm {
				fmt.Fprintf(w, "reused prepared dataset (%d rows x %d cols)\n", ev.Rows, ev.Cols)
			} else {
				fmt.Fprintf(w, "preprocessed %d rows x %d cols in %s\n",
					ev.Rows, ev.Cols, ev.Duration.Round(time.Millisecond))
			}
		case hyfd.SamplingRound:
			fmt.Fprintf(w, "sampling round %d: %d new observations, %d comparisons (threshold %.4g) in %s, induction %s%s\n",
				ev.Round, ev.NewObservations, ev.Comparisons, ev.Threshold,
				ev.Duration.Round(time.Millisecond), ev.Induction.Round(time.Millisecond), rate(ev.Comparisons, "cmp/s"))
		case hyfd.PhaseSwitch:
			fmt.Fprintf(w, "phase switch #%d: %s -> %s\n", ev.Switches, ev.From, ev.To)
		case hyfd.ValidationLevel:
			validations += int64(ev.Validations)
			fmt.Fprintf(w, "validation level %d: %d candidates, %d valid, %d invalid, %d refinements, %d fallbacks in %s%s\n",
				ev.Level, ev.Candidates, ev.Valid, ev.Invalid, ev.Refinements, ev.Fallbacks,
				ev.Duration.Round(time.Millisecond), rate(validations, "val/s"))
		case hyfd.GuardianPrune:
			fmt.Fprintf(w, "memory guardian: results pruned to LHS size <= %d (intervention #%d)\n",
				ev.MaxLhs, ev.Interventions)
		case hyfd.RankedResult:
			fmt.Fprintf(w, "ranked result #%d: score %.6g (%v -> %d) at %s\n",
				ev.Rank, ev.Score, ev.Lhs, ev.Rhs, ev.Duration.Round(time.Millisecond))
		case hyfd.Done:
			fmt.Fprintf(w, "done: %d FDs in %s\n", ev.FDs, ev.Duration.Round(time.Millisecond))
		}
	})
}

// humanRate renders an events-per-second figure compactly: 532, 12.3k,
// 4.6M (the caller appends the unit).
func humanRate(v float64) string {
	switch {
	case v >= 1e6:
		return fmt.Sprintf("%.1fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fk", v/1e3)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}

func fatalIf(err error) {
	if err != nil {
		msg := strings.TrimPrefix(err.Error(), "hyfd: ")
		fmt.Fprintln(os.Stderr, "hyfd:", msg)
		os.Exit(1)
	}
}
