// Package sampler implements HyFD's focused sampling (§6, Alg. 2): the
// column-efficient half of Phase 1. It compares PLI-compressed records
// inside sliding windows over sorted PLI clusters, progressively widening
// the window of whichever attribute sortation currently yields the most new
// FD-violations per comparison, and stops once every sortation's efficiency
// falls below the (progressively relaxed) threshold.
package sampler

import (
	"container/heap"
	"context"
	"runtime"
	"slices"
	"sync"

	"hyfd/internal/bitset"
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
	// seen holds every agree set observed so far.
	seen *bitset.HashSet
	// sets are the agree-set scratches of the sequential comparisons. match
	// builds each set in sets[cur]; once hasLast is set, sets[cur^1] holds
	// the set match looked up last, and match skips the lookup of an Equal
	// set. A lookup flips cur, so keeping its set copies nothing and writes
	// no pointer.
	sets    [2]bitset.Set
	cur     int
	hasLast bool
	// lookupRepeats is a test seam: it turns the repeat check off, so
	// every comparison looks its agree set up.
	lookupRepeats bool
	initialized   bool
	threads       int
	// efficiencies holds the current round's window efficiencies
	// (WindowEfficiencies); each round starts a fresh slice.
	efficiencies []float64
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

// Config parameterizes a Sampler at construction time.
type Config struct {
	// Threshold is the initial sampling efficiency cutoff; any value <= 0
	// picks DefaultEfficiencyThreshold.
	Threshold float64
	// Threads is the worker count for parallel cluster sortation and
	// window runs (§10.4: the comparisons are independent of one another);
	// 1 is sequential, any value <= 0 picks runtime.GOMAXPROCS(0). Every
	// thread count produces the same observations in the same order.
	Threads int
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
		seen:      bitset.NewHashSet(ix.NumCols),
		sets:      [2]bitset.Set{bitset.New(ix.NumCols), bitset.New(ix.NumCols)},
		budget:    n * (n - 1) / 2,
	}
}

// Threshold returns the current sampling efficiency threshold.
func (s *Sampler) Threshold() float64 { return s.threshold }

// AllPairs reports whether the sampler has compared every record pair. The
// observations then hold every agree set of the relation, so the negative
// cover is complete and later runs return nothing.
func (s *Sampler) AllPairs() bool { return s.allPairs }

// WindowEfficiencies returns, in run order, new observations per comparison
// of each window run of the latest round that made comparisons (telemetry
// for trace.SamplingRound). The slice belongs to the caller: the next round
// starts a new one.
func (s *Sampler) WindowEfficiencies() []float64 { return s.efficiencies }

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
// comparisons inside them, by each worker of a parallel window run too; a
// canceled run returns ctx.Err() promptly and leaves the sampler in a
// consistent (but unfinished) state.
func (s *Sampler) Run(ctx context.Context, suggestions []pli.Pair) ([]bitset.Set, error) {
	s.efficiencies = nil
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
// (a promising key), ties fall back to the right neighbor, and then to the
// record id. Distinct sort keys per attribute give each record a different
// neighborhood in each of its clusters. Attributes are independent, so
// they sort on a pool of up to threads workers, each with one scratch it
// reuses across attributes; each attribute's sortation is deterministic,
// so the result is identical for every thread count. The context is
// checked once per attribute.
func (s *Sampler) sortClusters(ctx context.Context) error {
	s.sorted = make([][][]int32, s.ix.NumCols)
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < min(s.threads, s.ix.NumCols); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sc sortScratch
			for attr := range work {
				if ctx.Err() != nil {
					continue // drain the channel without working
				}
				s.sorted[attr] = sc.sortAttr(s.ix, attr)
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

// sortBatch bounds the records sortAttr sorts together: a batch takes
// consecutive clusters while they fit, and a larger cluster forms a batch
// of its own. The bound rises to the larger neighbor's cluster count, so
// any two consecutive batches hold more records than the counts they clear
// and clearing stays linear in the records sorted.
const sortBatch = 32 << 10

// sortTuple is one cluster record during sortation: rec is the record,
// cluster the index of its cluster in the attribute's PLI, and key its
// cluster ids in the left and right neighbors plus one, so that the
// Singleton id -1 counts at index 0.
type sortTuple struct {
	rec, cluster int32
	key          [2]int32
}

// sortScratch is the reusable memory of one sortation worker: two tuple
// buffers the counting passes alternate between, and their count array.
// They grow to the largest batch and neighbor cluster count met.
type sortScratch struct {
	a, b  []sortTuple
	count []int32
}

// sortAttr returns the clusters of attr sorted on (left id, right id,
// record), all sharing one backing array. Cluster ids are dense: a
// record's id in attribute X lies in [-1, len(Plis[X].Clusters)). So the
// sortation is an LSD radix sort with no comparisons: a stable counting
// pass on the right neighbor's id, then one on the left's, then a scatter
// into each record's own cluster, whose slots start at the prefix sums of
// the cluster sizes. Every cluster enters in ascending record order and
// every pass is stable, so ties on both neighbors keep ascending record
// ids: each cluster comes out as exactly the permutation a comparison sort
// on the full key gives. A neighbor that does not exist, or has no
// clusters, keys every record alike, and its pass is skipped. Consecutive
// clusters sort together in batches of up to sortBatch records.
func (sc *sortScratch) sortAttr(ix *pli.Index, attr int) [][]int32 {
	p := ix.Plis[attr]
	// nb holds the left and right neighbors and ids their cluster counts;
	// a missing neighbor counts none.
	var nb, ids [2]int
	pos := slices.Index(ix.Order, attr)
	for k, i := range [2]int{pos - 1, pos + 1} {
		if i >= 0 && i < ix.NumCols {
			nb[k] = ix.Order[i]
			ids[k] = len(ix.Plis[nb[k]].Clusters)
		}
	}
	batch := max(sortBatch, ids[0]+1, ids[1]+1)
	if n := max(ids[0], ids[1]) + 1; len(sc.count) < n {
		sc.count = make([]int32, n)
	}
	size := p.Size()
	flat := make([]int32, size)
	out := make([][]int32, len(p.Clusters))
	start := 0
	for ci, cluster := range p.Clusters {
		out[ci] = flat[start : start : start+len(cluster)]
		start += len(cluster)
	}
	for lo := 0; lo < len(p.Clusters); {
		hi, n := lo+1, len(p.Clusters[lo])
		for ; hi < len(p.Clusters) && n+len(p.Clusters[hi]) <= batch; hi++ {
			n += len(p.Clusters[hi])
		}
		if len(sc.a) < n {
			// Most batches fit the first allocation: it takes a whole
			// batch, or the whole attribute when that is smaller.
			c := max(n, min(batch, size))
			sc.a, sc.b = make([]sortTuple, c), make([]sortTuple, c)
		}
		src, dst := sc.a[:0], sc.b[:n]
		for ci := lo; ci < hi; ci++ {
			for _, rec := range p.Clusters[ci] {
				t, row := sortTuple{rec: rec, cluster: int32(ci)}, ix.Row(int(rec))
				if ids[0] > 0 {
					t.key[0] = row[nb[0]] + 1
				}
				if ids[1] > 0 {
					t.key[1] = row[nb[1]] + 1
				}
				src = append(src, t)
			}
		}
		for k := 1; k >= 0; k-- {
			if ids[k] > 0 {
				countPass(dst, src, sc.count[:ids[k]+1], k)
				src, dst = dst, src
			}
		}
		for _, t := range src {
			out[t.cluster] = append(out[t.cluster], t.rec)
		}
		lo = hi
	}
	return out
}

// countPass stably reorders src into dst by key k, whose values lie in
// [0, len(count)).
func countPass(dst, src []sortTuple, count []int32, k int) {
	clear(count)
	for _, t := range src {
		count[t.key[k]]++
	}
	sum := int32(0)
	for i, c := range count {
		count[i] = sum
		sum += c
	}
	for _, t := range src {
		dst[count[t.key[k]]] = t
		count[t.key[k]]++
	}
}

// runWindow compares every record to its (window-1)-distant successor in
// each cluster of the attribute's sortation (Alg. 2 lines 27-35). With
// threads configured, the comparisons split into one contiguous share per
// worker (runWindowParallel), and the merge deduplicates sequentially,
// keeping the observation order deterministic.
func (s *Sampler) runWindow(ctx context.Context, e *efficiency, newObs *[]bitset.Set) error {
	before := len(*newObs)
	comps := int64(0)
	clusters := s.sorted[e.attr]
	if s.threads > 1 {
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
	if comps > 0 {
		s.efficiencies = append(s.efficiencies, float64(len(*newObs)-before)/float64(comps))
	}
	return nil
}

// runWindowParallel splits the window run's comparison sequence (cluster
// by cluster, i ascending) into one contiguous share of nearly equal length
// per thread; a cluster may straddle two shares. Each worker compares its
// share in order, with its own agree-set scratch, and keeps a copy of the
// first occurrence of every agree set that is not yet observed and that it
// has not kept already. The sequential merge then walks the shares in
// order: a set's first occurrence lies in the earliest share that meets
// it, so the merge keeps that copy and the observation order is the
// sequential loop's at every thread count. Workers check the context every
// cancelStride comparisons; a canceled run discards every share.
func (s *Sampler) runWindowParallel(ctx context.Context, window int, clusters [][]int32, newObs *[]bitset.Set) (int64, error) {
	total := int64(0)
	for _, cluster := range clusters {
		total += int64(max(len(cluster)-window+1, 0))
	}
	shares := min(int64(s.threads), total)
	kept := make([][]bitset.Set, shares)
	var wg sync.WaitGroup
	ci, i := 0, 0 // where the next share starts: clusters[ci][i]
	for w := int64(0); w < shares; w++ {
		n := (w+1)*total/shares - w*total/shares
		wg.Add(1)
		go func(w int64, ci, i int, n int64) {
			defer wg.Done()
			kept[w] = s.compareShare(ctx, window, clusters, ci, i, n)
		}(w, ci, i, n)
		for n > 0 {
			rest := int64(len(clusters[ci]) - window + 1 - i)
			if n < rest {
				i += int(n)
				break
			}
			n -= max(rest, 0)
			ci, i = ci+1, 0
		}
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	s.Comparisons += total
	for _, sets := range kept {
		for _, agree := range sets {
			if s.seen.Add(agree) {
				*newObs = append(*newObs, agree)
			}
		}
	}
	return total, nil
}

// compareShare makes the n comparisons of one window share that starts at
// clusters[ci][i] and returns the copies it keeps (see runWindowParallel).
// s.seen is only read here; the merge writes it after every worker ends.
// A canceled share returns early, and the caller discards it.
//
// As in match, an agree set Equal to the share's previous one skips the
// lookups: one comparison earlier that set was found in s.seen or in met,
// or kept in met. last belongs to the share, since another share's sets
// need not be in this share's met.
func (s *Sampler) compareShare(ctx context.Context, window int, clusters [][]int32, ci, i int, n int64) []bitset.Set {
	agree, last := bitset.New(s.ix.NumCols), bitset.New(s.ix.NumCols)
	met := bitset.NewHashSet(s.ix.NumCols)
	var sets []bitset.Set
	for done := int64(0); done < n; ci, i = ci+1, 0 {
		cluster := clusters[ci]
		for ; i+window-1 < len(cluster) && done < n; i++ {
			if done%cancelStride == 0 && ctx.Err() != nil {
				return nil
			}
			pli.AgreeSet(agree, s.ix.Row(int(cluster[i])), s.ix.Row(int(cluster[i+window-1])))
			repeat := done > 0 && !s.lookupRepeats && agree.Equal(last)
			done++
			if repeat {
				continue
			}
			agree, last = last, agree
			if !s.seen.Has(last) && met.Add(last) {
				sets = append(sets, last.Clone())
			}
		}
	}
	return sets
}

// match compares two compressed records and records their agree set if it
// is a new observation. A set Equal to the latest set match looked up
// skips the lookup: that set is in seen, which only grows, so the
// comparison repeats an observation. Only a new observation is copied, so
// a duplicate comparison allocates nothing.
func (s *Sampler) match(a, b int32, newObs *[]bitset.Set) {
	s.Comparisons++
	agree := s.sets[s.cur]
	pli.AgreeSet(agree, s.ix.Row(int(a)), s.ix.Row(int(b)))
	if s.hasLast && !s.lookupRepeats && agree.Equal(s.sets[s.cur^1]) {
		return
	}
	s.cur ^= 1
	s.hasLast = true
	if s.seen.Add(agree) {
		*newObs = append(*newObs, agree.Clone())
	}
}
