// Package metrics is the engine's aggregation layer: a stdlib-only,
// allocation-light metrics registry in the Prometheus data model. Where
// internal/trace carries ephemeral per-round and per-level events, this
// package folds them into queryable instruments — atomic counters, gauges,
// and fixed-bucket histograms with quantile estimation — grouped into
// optionally labeled families by a Registry that can render itself as
// Prometheus exposition text or as a stable JSON Snapshot. The event stream
// is its only input from the engine: EngineMetrics.Observer joins the
// stream like any other observer, and the engine never imports this
// package.
//
// Pay-for-what-you-use: an unmetered run has no bridge in its observer
// chain, so it pays only the engine's nil checks on the observer. Every
// instrument method is also safe on a nil receiver and returns
// immediately. Instruments are safe for concurrent use; updates are
// lock-free.
package metrics

import (
	"math"
	"sync/atomic"
)

// Counter is a monotonically increasing integer instrument (Prometheus
// counter). The zero value is ready to use; a nil *Counter is a no-op.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n; negative deltas are ignored (counters are monotonic).
func (c *Counter) Add(n int64) {
	if c != nil && n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float instrument that can go up and down (Prometheus gauge).
// The zero value is ready to use; a nil *Gauge is a no-op.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adds delta to the gauge's value.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Value returns the gauge's current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// atomicFloat accumulates a float64 sum with compare-and-swap.
type atomicFloat struct {
	bits atomic.Uint64
}

func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

func (f *atomicFloat) load() float64 {
	return math.Float64frombits(f.bits.Load())
}
