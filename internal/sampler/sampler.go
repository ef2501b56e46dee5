// Package sampler implements HyFD's focused sampling (§6, Alg. 2): the
// column-efficient half of Phase 1. It compares PLI-compressed records
// inside sliding windows over sorted PLI clusters, progressively widening
// the window of whichever attribute sortation currently yields the most new
// FD-violations per comparison, and stops once every sortation's efficiency
// falls below the (progressively relaxed) threshold.
package sampler

import (
	"cmp"
	"container/heap"
	"context"
	"runtime"
	"slices"
	"sync"

	"hyfd/internal/bitset"
	"hyfd/internal/metrics"
	"hyfd/internal/pli"
)

// DefaultEfficiencyThreshold is the paper's recommended initial sampling
// efficiency: one new FD-violation per 100 comparisons.
const DefaultEfficiencyThreshold = 0.01

// cancelStride bounds how many record-pair comparisons may pass between two
// context checks inside a cluster scan; it keeps cancellation latency small
// on datasets whose clusters span most of the relation while keeping the
// per-comparison overhead negligible. Must be a power of two.
const cancelStride = 4096

// efficiency tracks the sampling performance of one attribute's sortation.
type efficiency struct {
	attr      int
	window    int
	comps     int64
	results   int64
	exhausted bool // window outgrew every cluster; no comparisons left
	heapIdx   int
}

func (e *efficiency) eval() float64 {
	if e.exhausted || e.comps == 0 {
		return 0
	}
	return float64(e.results) / float64(e.comps)
}

// effQueue is a max-heap of efficiencies.
type effQueue []*efficiency

func (q effQueue) Len() int            { return len(q) }
func (q effQueue) Less(i, j int) bool  { return q[i].eval() > q[j].eval() }
func (q effQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i]; q[i].heapIdx = i; q[j].heapIdx = j }
func (q *effQueue) Push(x interface{}) { e := x.(*efficiency); e.heapIdx = len(*q); *q = append(*q, e) }
func (q *effQueue) Pop() interface{} {
	old := *q
	n := len(old)
	e := old[n-1]
	*q = old[:n-1]
	return e
}

// Sampler detects FD-violations (non-FDs) by windowed record comparisons.
// It keeps all observations across calls; Run returns only new ones.
type Sampler struct {
	ix        *pli.Index
	threshold float64
	queue     effQueue
	// sorted holds, per attribute, its PLI clusters re-sorted by the
	// neighbor-attribute keys of Fig. 3(1).
	sorted [][][]int32
	seen   map[string]struct{}
	// scratch holds the agree set of the sequential comparison in flight
	// and keyBuf the Key bytes of the set markSeen looks up, so a
	// duplicate allocates nothing.
	scratch     bitset.Set
	keyBuf      []byte
	initialized bool
	unfocused   bool
	threads     int
	inst        metrics.SamplerInstruments
	// budget is n(n-1)/2, the number of record pairs Fdep's loop compares.
	// Once Comparisons reach it, the sampler compares every pair instead of
	// running further windows (compareAllPairs), and allPairs is set.
	budget   int64
	allPairs bool

	// Comparisons counts record-pair comparisons over the sampler's life
	// (telemetry for the evaluation).
	Comparisons int64
	// Windows counts cluster-window runs over the sampler's life — the
	// sampler's unit of work, one per efficiency-queue pop (telemetry for
	// trace.SamplingRound).
	Windows int64
}

// Config parameterizes a Sampler. It replaces the former per-component
// setters so the engine's single thread knob configures the sampler
// atomically at construction time.
type Config struct {
	// Threshold is the initial sampling efficiency cutoff; any value <= 0
	// picks DefaultEfficiencyThreshold.
	Threshold float64
	// Threads is the worker count for parallel cluster sortation and
	// window runs (§10.4: the comparisons are independent of one another);
	// 1 is sequential, any value <= 0 picks runtime.GOMAXPROCS(0). Every
	// thread count produces the same observations in the same order.
	Threads int
	// Unfocused disables the neighborhood sortation of Fig. 3(1): windows
	// then slide over clusters in raw record order. This ablation
	// quantifies the contribution of focused sampling; it affects
	// efficiency only, never correctness.
	Unfocused bool
	// Instruments carries the sampler's direct metrics hooks. The zero
	// value is a no-op: the per-comparison hot path stays untouched,
	// comparison counts are batched once per round, and the per-window
	// instruments fire once per window run.
	Instruments metrics.SamplerInstruments
}

// New returns a Sampler over the preprocessed index.
func New(ix *pli.Index, cfg Config) *Sampler {
	threshold := cfg.Threshold
	if threshold <= 0 {
		threshold = DefaultEfficiencyThreshold
	}
	threads := cfg.Threads
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	n := int64(ix.NumRows)
	return &Sampler{
		ix:        ix,
		threshold: threshold,
		threads:   threads,
		unfocused: cfg.Unfocused,
		inst:      cfg.Instruments,
		seen:      make(map[string]struct{}),
		scratch:   bitset.New(ix.NumCols),
		budget:    n * (n - 1) / 2,
	}
}

// Threshold returns the current sampling efficiency threshold.
func (s *Sampler) Threshold() float64 { return s.threshold }

// AllPairs reports whether the sampler has compared every record pair. The
// observations then hold every agree set of the relation, so the negative
// cover is complete and later runs return nothing.
func (s *Sampler) AllPairs() bool { return s.allPairs }

// Run performs one sampling round and returns the FD-violations first
// observed during this round, as bitsets of the attributes in which the
// compared records agree. On the first call it sorts all clusters and seeds
// every attribute with a window of two; on later calls it halves the
// efficiency threshold and replays the Validator's comparison suggestions
// before resuming the progressive window search.
//
// Before every seeding window and every step of the progressive search the
// sampler checks its budget: once its comparisons reach the n(n-1)/2
// record pairs, it compares every pair instead (compareAllPairs) and ends
// the round. AllPairs reports true from then on, and later runs only halve
// the threshold and return nothing. A round therefore compares at most
// n(n-1) + n pairs besides the suggestions.
//
// The context is checked between clusters and every cancelStride
// comparisons inside them; a canceled run returns ctx.Err() promptly and
// leaves the sampler in a consistent (but unfinished) state.
func (s *Sampler) Run(ctx context.Context, suggestions []pli.Pair) ([]bitset.Set, error) {
	compsBefore := s.Comparisons
	defer func() { s.inst.Comparisons.Add(s.Comparisons - compsBefore) }()
	var newObs []bitset.Set
	if !s.initialized {
		s.initialized = true
		if err := s.sortClusters(ctx); err != nil {
			return nil, err
		}
		s.queue = make(effQueue, 0, s.ix.NumCols)
		for attr := 0; attr < s.ix.NumCols; attr++ {
			if s.Comparisons >= s.budget {
				return s.compareAllPairs(ctx, newObs)
			}
			e := &efficiency{attr: attr, window: 2}
			if err := s.runWindow(ctx, e, &newObs); err != nil {
				return nil, err
			}
			heap.Push(&s.queue, e)
		}
	} else {
		s.threshold /= 2
		if s.allPairs {
			return nil, nil
		}
		for i, sug := range suggestions {
			if i%cancelStride == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			s.match(sug.A, sug.B, &newObs)
		}
	}
	for len(s.queue) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if s.Comparisons >= s.budget {
			return s.compareAllPairs(ctx, newObs)
		}
		best := s.queue[0]
		if best.eval() < s.threshold {
			break
		}
		best.window++
		if err := s.runWindow(ctx, best, &newObs); err != nil {
			return nil, err
		}
		heap.Fix(&s.queue, 0)
	}
	return newObs, nil
}

// compareAllPairs ends a round whose comparisons reached the budget: it
// compares every record pair a < b in record order, as Fdep's loop does,
// appends the agree sets not seen before to newObs, and marks the negative
// cover complete. It runs sequentially at every thread count, so the
// observation order needs no merge; duplicates go through match and
// allocate nothing. The context is checked every cancelStride comparisons;
// a canceled pass leaves allPairs unset.
func (s *Sampler) compareAllPairs(ctx context.Context, newObs []bitset.Set) ([]bitset.Set, error) {
	n := int32(s.ix.NumRows)
	comps := 0
	for a := int32(0); a < n; a++ {
		for b := a + 1; b < n; b++ {
			if comps%cancelStride == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			s.match(a, b, &newObs)
			comps++
		}
	}
	s.allPairs = true
	return newObs, nil
}

// sortClusters builds, for every attribute, a private copy of its clusters
// with the records sorted by their cluster ids in neighboring attributes of
// the distinctness order (Fig. 3(1)): the left neighbor has more clusters
// (a promising key), ties fall back to the right neighbor. Distinct sort
// keys per attribute give each record a different neighborhood in each of
// its clusters. Attributes are independent, so with threads configured they
// sort on a worker pool; each attribute's sortation is deterministic, so
// the result is identical for every thread count. The context is checked
// once per attribute.
func (s *Sampler) sortClusters(ctx context.Context) error {
	s.sorted = make([][][]int32, s.ix.NumCols)
	pos := s.ix.Rank()
	sortAttr := func(attr int) {
		p := s.ix.Plis[attr]
		if s.unfocused {
			s.sorted[attr] = p.Clusters
			return
		}
		left, right := -1, -1
		if i := pos[attr]; i > 0 {
			left = s.ix.Order[i-1]
		}
		if i := pos[attr]; i+1 < s.ix.NumCols {
			right = s.ix.Order[i+1]
		}
		// Sort each cluster on (left id, right id, record) keys gathered
		// once per record, so comparisons read contiguous memory. The
		// record id makes the order total, so any sort yields the same
		// permutation. All sorted clusters share one backing array.
		var keys []sortKey
		flat := make([]int32, 0, p.Size())
		clusters := make([][]int32, len(p.Clusters))
		for ci, cluster := range p.Clusters {
			keys = keys[:0]
			for _, rec := range cluster {
				k, row := sortKey{rec: rec}, s.ix.Row(int(rec))
				if left >= 0 {
					k.left = row[left]
				}
				if right >= 0 {
					k.right = row[right]
				}
				keys = append(keys, k)
			}
			slices.SortFunc(keys, compareSortKeys)
			start := len(flat)
			for _, k := range keys {
				flat = append(flat, k.rec)
			}
			clusters[ci] = flat[start:len(flat):len(flat)]
		}
		s.sorted[attr] = clusters
	}
	if s.threads > 1 && s.ix.NumCols > 1 {
		var wg sync.WaitGroup
		work := make(chan int)
		workers := s.threads
		if workers > s.ix.NumCols {
			workers = s.ix.NumCols
		}
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for attr := range work {
					if ctx.Err() != nil {
						continue // drain the channel without working
					}
					sortAttr(attr)
				}
			}()
		}
		for attr := 0; attr < s.ix.NumCols; attr++ {
			work <- attr
		}
		close(work)
		wg.Wait()
		return ctx.Err()
	}
	for attr := 0; attr < s.ix.NumCols; attr++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		sortAttr(attr)
	}
	return nil
}

// sortKey is one cluster record with its cluster ids in the two neighbor
// attributes of the sortation (0 where a neighbor does not exist).
type sortKey struct{ left, right, rec int32 }

func compareSortKeys(x, y sortKey) int {
	if c := cmp.Compare(x.left, y.left); c != 0 {
		return c
	}
	if c := cmp.Compare(x.right, y.right); c != 0 {
		return c
	}
	return cmp.Compare(x.rec, y.rec)
}

// runWindow compares every record to its (window-1)-distant successor in
// each cluster of the attribute's sortation (Alg. 2 lines 27-35). With
// threads configured, clusters are matched by a worker pool; the workers
// build raw agree-sets and the merge deduplicates sequentially, keeping
// the observation order deterministic.
func (s *Sampler) runWindow(ctx context.Context, e *efficiency, newObs *[]bitset.Set) error {
	before := len(*newObs)
	comps := int64(0)
	clusters := s.sorted[e.attr]
	if s.threads > 1 && len(clusters) > 1 {
		var err error
		comps, err = s.runWindowParallel(ctx, e.window, clusters, newObs)
		if err != nil {
			return err
		}
	} else {
		for _, cluster := range clusters {
			if err := ctx.Err(); err != nil {
				return err
			}
			for i := 0; i+e.window-1 < len(cluster); i++ {
				s.match(cluster[i], cluster[i+e.window-1], newObs)
				comps++
				if comps%cancelStride == 0 {
					if err := ctx.Err(); err != nil {
						return err
					}
				}
			}
		}
	}
	if comps == 0 {
		e.exhausted = true
	}
	e.comps += comps
	e.results += int64(len(*newObs) - before)
	s.Windows++
	s.inst.Windows.Inc()
	if comps > 0 {
		s.inst.WindowEfficiency.Observe(float64(len(*newObs)-before) / float64(comps))
	}
	return nil
}

// runWindowParallel fans the clusters of one window run out over workers.
// Each worker builds agree sets in one scratch set and keeps, per cluster,
// a copy of only those that are not yet observed and that it has not kept
// before in this window run; a worker takes clusters in ascending order, so
// the first occurrence of every set survives. The sequential merge then walks the
// clusters in order, keeping the observation order identical for every
// thread count. Workers re-check the context before every cluster; on
// cancellation the remaining work items drain without being processed and
// the partial round is discarded by the caller.
func (s *Sampler) runWindowParallel(ctx context.Context, window int, clusters [][]int32, newObs *[]bitset.Set) (int64, error) {
	perCluster := make([][]bitset.Set, len(clusters))
	var comps int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < s.threads; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := int64(0)
			agree := bitset.New(s.ix.NumCols)
			var key []byte
			// met holds the keys this worker already kept; s.seen is only
			// read here and written by the merge after wg.Wait.
			met := make(map[string]struct{})
			for ci := range work {
				if ctx.Err() != nil {
					continue // drain the channel without working
				}
				cluster := clusters[ci]
				var sets []bitset.Set
				for i := 0; i+window-1 < len(cluster); i++ {
					s.agreeSet(agree, cluster[i], cluster[i+window-1])
					local++
					key = agree.AppendKey(key[:0])
					if _, dup := s.seen[string(key)]; dup {
						continue
					}
					if _, dup := met[string(key)]; dup {
						continue
					}
					met[string(key)] = struct{}{}
					sets = append(sets, agree.Clone())
				}
				perCluster[ci] = sets
			}
			mu.Lock()
			comps += local
			mu.Unlock()
		}()
	}
	for ci := range clusters {
		work <- ci
	}
	close(work)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	s.Comparisons += comps
	for _, sets := range perCluster {
		for _, agree := range sets {
			if s.markSeen(agree) {
				*newObs = append(*newObs, agree)
			}
		}
	}
	return comps, nil
}

// agreeSet overwrites agree with the attributes on which records a and b
// agree. Singleton cluster ids never match, mirroring stripped-partition
// semantics.
func (s *Sampler) agreeSet(agree bitset.Set, a, b int32) {
	agree.ClearAll()
	ra, rb := s.ix.Row(int(a)), s.ix.Row(int(b))
	rb = rb[:len(ra)] // one bounds check here instead of one per cell
	for attr, cid := range ra {
		if cid != pli.Singleton && cid == rb[attr] {
			agree.Set(attr)
		}
	}
}

// match compares two compressed records and records their agree set if it
// is a new observation. Only a new observation is copied and keyed, so a
// duplicate comparison allocates nothing.
func (s *Sampler) match(a, b int32, newObs *[]bitset.Set) {
	s.Comparisons++
	s.agreeSet(s.scratch, a, b)
	if s.markSeen(s.scratch) {
		*newObs = append(*newObs, s.scratch.Clone())
	}
}

// markSeen adds agree to the observations seen so far and reports whether
// it is new. The lookup reuses keyBuf, so only a new key allocates.
func (s *Sampler) markSeen(agree bitset.Set) bool {
	s.keyBuf = agree.AppendKey(s.keyBuf[:0])
	if _, dup := s.seen[string(s.keyBuf)]; dup {
		return false
	}
	s.seen[string(s.keyBuf)] = struct{}{}
	return true
}

// ObservationCount returns the number of distinct FD-violations seen so far.
func (s *Sampler) ObservationCount() int { return len(s.seen) }
