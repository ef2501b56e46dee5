// Package harness executes and measures FD discovery runs for the
// reproduction of the paper's evaluation section (§10): per-run wall-clock
// timing, peak-heap sampling, FD counting, and the job definitions for
// every table and figure. Every job is one hyfd.Run call, the entry point
// cmd/hyfd and hyfdd serve. The cmd/bench binary drives these jobs (in
// subprocesses, so timeouts and peak RSS are real); bench_test.go runs
// scaled-down in-process variants.
package harness

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"

	"hyfd"
	"hyfd/internal/datasets"
)

// HyFDName is the display name of the paper's algorithm in result tables.
const HyFDName = hyfd.AlgorithmHyFD

// AlgorithmNames lists the evaluation's algorithm column order (Table 1).
var AlgorithmNames = []string{
	"Tane", "Fun", "FD_Mine", "Dfd", "Dep-Miner", "FastFDs", "Fdep", HyFDName,
}

// Spec describes one measurement job.
type Spec struct {
	// Algorithm is one of AlgorithmNames.
	Algorithm string `json:"algorithm"`
	// Dataset is a datasets.ByName key.
	Dataset string `json:"dataset"`
	// Rows caps the generated row count (0 = the dataset's full size).
	Rows int `json:"rows,omitempty"`
	// Cols projects to the first Cols columns (0 = all).
	Cols int `json:"cols,omitempty"`
	// Threads is the run's worker count (0 = one worker). A baseline uses
	// it only to prepare its input.
	Threads int `json:"threads,omitempty"`
	// Threshold overrides HyFD's efficiency threshold (0 = default).
	Threshold float64 `json:"threshold,omitempty"`
	// MaxLhs bounds result LHS sizes; the paper uses this via the Guardian
	// for uniprot, whose complete result is too large to store (§10.4).
	MaxLhs int `json:"max_lhs,omitempty"`
	// TopK, when positive, switches the HyFD run into ranked top-k mode:
	// the engine streams the k best-scored FDs and terminates as soon as
	// the cut bound proves the prefix stable, so Seconds measures
	// time-to-top-k rather than time-to-complete-cover.
	TopK int `json:"top_k,omitempty"`
	// Metrics meters the measured run: it reports through a fresh
	// registry (Options.Metrics), whose snapshot the result embeds (see
	// Result.Metrics). Off by default so the perf-criterion paths
	// (bench_test.go) stay unmetered.
	Metrics bool `json:"metrics,omitempty"`
	// DeltaRows holds back the materialized relation's last DeltaRows rows
	// as an insert batch for an Incremental spec; the base snapshot covers
	// the remaining prefix. The final relation — base plus batch — is
	// row-for-row the full materialization, so a cold run over the same spec
	// sans Incremental is the exact comparison target.
	DeltaRows int `json:"delta_rows,omitempty"`
	// Incremental measures update-batch maintenance instead of discovery:
	// the base snapshot and its FD cover are built before the timer starts
	// (cost reported in PrepSeconds), and Seconds covers one ModeIncremental
	// run that applies the DeltaRows batch and maintains the cover.
	Incremental bool `json:"incremental,omitempty"`
	// Digest records a canonical fingerprint of the run's complete FD cover
	// in Result.CoverDigest (every run but a TopK one) — the cross-run
	// exactness check of the incremental experiment.
	Digest bool `json:"digest,omitempty"`
}

// Result is the outcome of one measurement job.
type Result struct {
	Spec    Spec    `json:"spec"`
	Seconds float64 `json:"seconds"`
	// PrepSeconds is the cost an Incremental spec excluded from Seconds:
	// preparing the base snapshot and discovering its cover.
	PrepSeconds float64 `json:"prep_seconds,omitempty"`
	FDs         int     `json:"fds"`
	PeakHeap    uint64  `json:"peak_heap"`
	// Switches is HyFD's phase-switch count (Fig. 8), -1 for baselines and
	// incremental runs.
	Switches int    `json:"switches"`
	Err      string `json:"err,omitempty"`
	// TimedOut marks a run that hit its time limit: the subprocess
	// driver's, or a deadline or cancellation of Measure's context.
	// MemExceeded is set only by the subprocess driver.
	TimedOut    bool `json:"timed_out,omitempty"`
	MemExceeded bool `json:"mem_exceeded,omitempty"`
	// Stats carries HyFD's full run telemetry (phase timings, comparison
	// and validation counts) when the run completed; nil for baselines.
	Stats *hyfd.Stats `json:"stats,omitempty"`
	// CoverDigest is the sha256 fingerprint of the run's complete FD cover
	// in canonical order, recorded when Spec.Digest is set. Byte-equal
	// digests — incremental vs cold, one worker vs many, HyFD vs a
	// baseline — certify identical covers without embedding thousands of
	// FDs in the artifact.
	CoverDigest string `json:"cover_digest,omitempty"`
	// RankedDigest is a canonical rendering of a TopK run's output
	// ("rank:score:lhs->rhs" per entry) — byte-equal digests across thread
	// counts are the determinism check of the ranked experiment.
	RankedDigest string `json:"ranked_digest,omitempty"`
	// Metrics is the run's metrics snapshot when Spec.Metrics was set.
	Metrics *hyfd.MetricsSnapshot `json:"metrics,omitempty"`
}

// fail records err as the job's outcome; a deadline or cancellation is a
// timeout.
func (r *Result) fail(err error) {
	r.Err = err.Error()
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		r.TimedOut = true
	}
}

// Materialize generates the relation a spec runs against.
func Materialize(spec Spec) (*hyfd.Relation, error) {
	d, err := datasets.ByName(spec.Dataset)
	if err != nil {
		return nil, err
	}
	scale := 1.0
	if spec.Rows > 0 {
		scale = float64(spec.Rows) / float64(d.Rows)
	}
	rel := d.Generate(scale)
	if spec.Rows > 0 && rel.NumRows() > spec.Rows {
		rel = rel.Head(spec.Rows)
		rel.Name = d.Name
	}
	if spec.Cols > 0 && spec.Cols < rel.NumCols() {
		rel = rel.Project(spec.Cols)
		rel.Name = d.Name
	}
	return rel, nil
}

// ExecuteInProcess materializes the spec's dataset and measures the run in
// the current process. Dataset generation time is excluded; peak heap is
// sampled concurrently. A deadline or cancellation of ctx aborts the
// measured run and is reported as a timeout in the result.
func ExecuteInProcess(ctx context.Context, spec Spec) Result {
	rel, err := Materialize(spec)
	if err != nil {
		return Result{Spec: spec, Switches: -1, Err: err.Error()}
	}
	return Measure(ctx, spec, rel)
}

// Measure times one hyfd.Run of the spec over an already-materialized
// relation, sampling the peak heap while it runs. A run aborted by the
// context reports TimedOut with the elapsed time instead of an FD count.
func Measure(ctx context.Context, spec Spec, rel *hyfd.Relation) Result {
	res := Result{Spec: spec, Switches: -1}

	// A zero Threads pins the run to one worker (the engine's own zero
	// default is all CPUs): the paper's tables contrast single-threaded
	// variants, and speedup experiments request workers explicitly.
	threads := spec.Threads
	if threads == 0 {
		threads = 1
	}
	req := hyfd.Request{
		Relation:  rel,
		Algorithm: spec.Algorithm,
		Options: hyfd.Options{
			Threads:             threads,
			EfficiencyThreshold: spec.Threshold,
			MaxLhsSize:          spec.MaxLhs,
		},
	}
	if spec.Algorithm == HyFDName {
		// Ranked and incremental mode reject a named algorithm.
		req.Algorithm = ""
	}
	if spec.TopK > 0 {
		req.Mode, req.TopK = hyfd.ModeRanked, spec.TopK
	}
	if spec.Incremental {
		// The base snapshot and its cover are paid for before the timer:
		// Seconds then measures exactly the per-batch maintenance cost that
		// the incremental experiment contrasts with a cold run over the
		// same final relation.
		n, k := rel.NumRows(), spec.DeltaRows
		if k <= 0 || k >= n {
			res.Err = fmt.Sprintf("incremental spec needs 0 < delta_rows < rows (got %d of %d)", k, n)
			return res
		}
		prepStart := time.Now()
		base, err := hyfd.Prepare(ctx, rel.Head(n-k), hyfd.PrepareOptions{Threads: threads})
		var cover *hyfd.Result
		if err == nil {
			cover, err = hyfd.Run(ctx, hyfd.Request{Dataset: base, Options: hyfd.Options{Threads: threads}})
		}
		res.PrepSeconds = time.Since(prepStart).Seconds()
		if err != nil {
			res.fail(err)
			return res
		}
		req.Mode = hyfd.ModeIncremental
		req.Relation, req.Dataset = nil, base
		req.Delta = &hyfd.Delta{Inserts: rel.Rows[n-k:]}
		req.Base = cover.Set
	}
	if spec.Metrics {
		req.Options.Metrics = hyfd.NewMetricsRegistry()
	}

	// The sampler reads the heap through runtime/metrics, which, unlike
	// runtime.ReadMemStats, does not stop the world inside the timed run.
	runtime.GC()
	var peak uint64
	stop := make(chan struct{})
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		ticker := time.NewTicker(2 * time.Millisecond)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				peak = max(peak, heapBytes())
			}
		}
	}()

	start := time.Now()
	out, err := hyfd.Run(ctx, req)
	res.Seconds = time.Since(start).Seconds()
	close(stop)
	<-samplerDone
	res.PeakHeap = max(peak, heapBytes())

	if err != nil {
		res.fail(err)
		return res
	}
	if req.Mode == hyfd.ModeRanked {
		res.FDs = len(out.Ranked)
		res.RankedDigest = rankedDigest(out.Ranked)
	} else {
		res.FDs = out.Set.Size()
		if spec.Digest {
			res.CoverDigest = coverDigest(out.Set)
		}
	}
	if req.Algorithm == "" {
		res.Stats = out.Stats
		if !spec.Incremental {
			res.Switches = out.Stats.PhaseSwitches
		}
	}
	if reg := req.Options.Metrics; reg != nil {
		snap := reg.Snapshot()
		res.Metrics = &snap
	}
	return res
}

// heapBytes reads the bytes of heap objects, live or not yet swept: the
// quantity runtime.MemStats.HeapAlloc reports.
func heapBytes() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// coverDigest fingerprints a complete FD cover: the sha256 of the set's
// canonical deterministic rendering, hex-encoded.
func coverDigest(set *hyfd.FDSet) string {
	sum := sha256.Sum256([]byte(set.String()))
	return hex.EncodeToString(sum[:])
}

// rankedDigest renders a ranked result canonically, one "rank:score:fd"
// entry per line. Two runs over the same relation must produce byte-equal
// digests regardless of thread count — the ranked experiment derives its
// determinism metric from that equality.
func rankedDigest(ranked []hyfd.RankedFD) string {
	var b strings.Builder
	for _, r := range ranked {
		fmt.Fprintf(&b, "%d:%.12g:%s\n", r.Rank, r.Score, r.FD.String())
	}
	return b.String()
}
