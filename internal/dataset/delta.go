package dataset

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"hyfd/internal/pli"
	"hyfd/internal/relation"
)

// Delta describes one batch of updates against a Dataset snapshot: rows to
// remove from the snapshot's relation and rows to append after the surviving
// ones. Deletes are matched by full row value against the receiver snapshot
// (the earliest not-yet-matched occurrence wins, so deleting a duplicated row
// twice removes two copies); a delete that matches no remaining row is an
// error. Deletes never match rows inserted by the same delta.
type Delta struct {
	Inserts []relation.Row
	Deletes []relation.Row
}

// IsEmpty reports whether the delta changes nothing.
func (d Delta) IsEmpty() bool { return len(d.Inserts) == 0 && len(d.Deletes) == 0 }

// Provenance records how a delta snapshot was derived from its parent. It is
// deliberately self-contained — copies, not references into the parent — so
// holding a snapshot does not pin its entire ancestor chain against garbage
// collection; the serving registry advances versions and per-job pinning
// keeps exactly the snapshots that are still in use alive.
type Provenance struct {
	// BaseVersion is the parent snapshot's Version().
	BaseVersion int
	// Inserts and Deletes count the delta's rows.
	Inserts int
	Deletes int
	// InsertedFrom is the first record id the inserted rows occupy in this
	// snapshot: ids [InsertedFrom, NumRows) are the delta's inserts. Equal
	// to NumRows when the delta inserted nothing.
	InsertedFrom int
	// SharedAttrs counts attributes whose cluster lists are structurally
	// shared — the same backing slice — with the parent snapshot. Only
	// insert-only deltas share clusters; any delete renumbers record ids
	// and forces a full rebuild.
	SharedAttrs int
}

// Apply produces a new immutable snapshot with the delta's deletes removed
// and its inserts appended, advancing Version by one. The result is
// bit-for-bit identical — PLIs, compressed records, attribute order — to
// Prepare run cold on the updated relation, for every thread count.
//
// Insert-only deltas take a copy-on-write fast path: surviving relation rows
// are shared with the parent, and per attribute the cluster list is extended
// rather than rebuilt (clusters untouched by the inserts share their backing
// arrays; a cluster list with no extensions is shared wholesale). Deltas
// containing deletes compact record ids, which renumbers every cluster, so
// they rebuild the index from the updated relation; the relation's surviving
// row slices are still shared.
func (d *Dataset) Apply(ctx context.Context, delta Delta) (*Dataset, error) {
	if ctx == nil {
		//hyfdvet:allow ctxflow — documented nil-ctx defaulting at the public preparation boundary
		ctx = context.Background()
	}
	m := d.ix.NumCols
	for i, row := range delta.Deletes {
		if len(row) != m {
			return nil, fmt.Errorf("dataset %q: delete row %d has arity %d, schema has %d columns", d.rel.Name, i, len(row), m)
		}
	}
	for i, row := range delta.Inserts {
		if len(row) != m {
			return nil, fmt.Errorf("dataset %q: insert row %d has arity %d, schema has %d columns", d.rel.Name, i, len(row), m)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	//hyfdvet:allow determinism — wall-clock telemetry only; never influences the FD set
	start := time.Now()

	deletedIDs, err := d.resolveDeletes(delta.Deletes)
	if err != nil {
		return nil, err
	}
	prov := &Provenance{
		BaseVersion: d.version,
		Inserts:     len(delta.Inserts),
		Deletes:     len(deletedIDs),
	}

	var (
		rel *relation.Relation
		ix  *pli.Index
	)
	switch {
	case len(deletedIDs) == 0 && len(delta.Inserts) == 0:
		// An empty delta advances the version but shares everything.
		rel, ix = d.rel, d.ix
		prov.InsertedFrom = d.ix.NumRows
		prov.SharedAttrs = m
	case len(deletedIDs) == 0:
		rel, ix, prov.SharedAttrs = d.applyInserts(delta.Inserts)
		prov.InsertedFrom = d.ix.NumRows
	default:
		rel, ix = d.applyRebuild(deletedIDs, delta.Inserts)
		prov.InsertedFrom = d.ix.NumRows - len(deletedIDs)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return &Dataset{
		rel:     rel,
		ns:      d.ns,
		threads: d.threads,
		ix:      ix,
		//hyfdvet:allow determinism — wall-clock telemetry only; never influences the FD set
		prepTime: time.Since(start),
		version:  d.version + 1,
		prov:     prov,
	}, nil
}

// rowKey renders a row as an unambiguous map key (length-prefixed cells, so
// no separator collision is possible).
func rowKey(row []string) string {
	var b strings.Builder
	for _, cell := range row {
		b.WriteString(strconv.Itoa(len(cell)))
		b.WriteByte(':')
		b.WriteString(cell)
	}
	return b.String()
}

// resolveDeletes maps delete rows to parent record ids by value, earliest
// unmatched occurrence first. The result is ascending; a delete row with no
// remaining match is an error.
func (d *Dataset) resolveDeletes(deletes []relation.Row) ([]int, error) {
	if len(deletes) == 0 {
		return nil, nil
	}
	want := make(map[string]int, len(deletes))
	for _, row := range deletes {
		want[rowKey(row)]++
	}
	ids := make([]int, 0, len(deletes))
	for r, row := range d.rel.Rows {
		if len(ids) == len(deletes) {
			break
		}
		k := rowKey(row)
		if c := want[k]; c > 0 {
			want[k] = c - 1
			ids = append(ids, r)
		}
	}
	if len(ids) != len(deletes) {
		for i, row := range deletes {
			if want[rowKey(row)] > 0 {
				return nil, fmt.Errorf("dataset %q: delete row %d matches no remaining row", d.rel.Name, i)
			}
		}
	}
	return ids, nil
}

// applyRebuild handles deltas that contain deletes: record-id compaction
// renumbers every cluster, so the index is rebuilt from the updated relation
// exactly as Prepare would. Surviving row slices are shared with the parent.
func (d *Dataset) applyRebuild(deletedIDs []int, inserts []relation.Row) (*relation.Relation, *pli.Index) {
	rows := make([][]string, 0, len(d.rel.Rows)-len(deletedIDs)+len(inserts))
	next := 0
	for r, row := range d.rel.Rows {
		if next < len(deletedIDs) && deletedIDs[next] == r {
			next++
			continue
		}
		rows = append(rows, row)
	}
	for _, row := range inserts {
		rows = append(rows, append(relation.Row(nil), row...))
	}
	rel := &relation.Relation{Name: d.rel.Name, Columns: d.rel.Columns, Rows: rows}
	return rel, pli.NewIndexWith(rel, d.ns, pli.Options{Threads: d.threads})
}

// attrExt is the per-attribute outcome of the insert-only fast path.
type attrExt struct {
	p *pli.PLI
	// shared: the new PLI reuses the parent's cluster list wholesale.
	shared bool
	// rewired: an old singleton joined a cluster, so the new cluster sorts
	// into the middle of the list and old rows' cluster ids shift — the
	// compressed records of old rows must be rebuilt for this attribute.
	rewired bool
}

// applyInserts extends the index copy-on-write for an insert-only delta.
func (d *Dataset) applyInserts(inserts []relation.Row) (*relation.Relation, *pli.Index, int) {
	n := d.ix.NumRows
	k := len(inserts)
	m := d.ix.NumCols
	rows := d.rel.Rows[:n:n]
	for _, row := range inserts {
		rows = append(rows, append(relation.Row(nil), row...))
	}
	rel := &relation.Relation{Name: d.rel.Name, Columns: d.rel.Columns, Rows: rows}

	exts := make([]attrExt, m)
	pli.ForEachAttr(m, d.threads, func(a int) {
		exts[a] = d.extendAttr(a, rel.Rows)
	})

	plis := make([]*pli.PLI, m)
	shared := 0
	rewired := false
	for a, e := range exts {
		plis[a] = e.p
		if e.shared {
			shared++
		}
		rewired = rewired || e.rewired
	}
	// Old records keep their compressed rows, so Assemble copies them and
	// inverts only the k new ones, into a fresh matrix: appending to the
	// parent's would let two children of one parent share, and overwrite,
	// its spare capacity. If an old singleton joined a cluster, cluster ids
	// of old records shifted in that attribute, so the whole matrix is
	// inverted.
	prefix := d.ix.Records
	if rewired {
		prefix = nil
	}
	ix := pli.Assemble(plis, n+k, prefix, d.threads)
	return rel, ix, shared
}

// extendAttr extends one attribute's PLI with the inserted rows (record ids
// [NumRows, len(newRows)) of the new relation), copy-on-write: untouched
// clusters share their backing arrays with the parent, and a cluster list
// with no extensions and no new clusters is shared wholesale.
func (d *Dataset) extendAttr(a int, newRows [][]string) attrExt {
	old := d.ix.Plis[a]
	n := d.ix.NumRows
	// Group inserted values; under ⊥≠⊥ every inserted null forms its own
	// singleton class and never joins (or anchors to) anything.
	groups := make(map[string][]int32)
	var order []string // first-seen value order, for deterministic assembly
	nulls := 0
	for r := n; r < len(newRows); r++ {
		v := newRows[r][a]
		if v == relation.Null && d.ns == relation.NullNotEqualsNull {
			nulls++
			continue
		}
		if _, ok := groups[v]; !ok {
			order = append(order, v)
		}
		groups[v] = append(groups[v], int32(r))
	}
	if len(groups) == 0 {
		return attrExt{
			p: &pli.PLI{
				Attr:        a,
				Clusters:    old.Clusters,
				NumClusters: old.NumClusters + nulls,
				NumRows:     len(newRows),
			},
			shared: true,
		}
	}
	// Anchor each inserted value against the parent: an existing cluster,
	// an existing singleton record, or nothing (a fresh value). One scan of
	// the old column, aborted as soon as every value is anchored.
	anchorCluster := make(map[string]int)
	anchorSingle := make(map[string]int32)
	pending := len(groups)
	for r := 0; r < n && pending > 0; r++ {
		v := d.rel.Rows[r][a]
		if _, ok := groups[v]; !ok {
			continue
		}
		if _, done := anchorCluster[v]; done {
			continue
		}
		if _, done := anchorSingle[v]; done {
			continue
		}
		if cid := d.ix.Row(r)[a]; cid != pli.Singleton {
			anchorCluster[v] = int(cid)
		} else {
			anchorSingle[v] = int32(r)
		}
		pending--
	}
	extended := make(map[int][]int32)
	var fresh [][]int32
	newClasses := nulls
	rewired := false
	for _, v := range order {
		ids := groups[v]
		if cid, ok := anchorCluster[v]; ok {
			extended[cid] = ids
			continue
		}
		if r0, ok := anchorSingle[v]; ok {
			// The parent singleton joins the inserted ids: the new
			// cluster's first id r0 < n sorts it into the middle of the
			// list, shifting old cluster ids.
			fresh = append(fresh, append([]int32{r0}, ids...))
			rewired = true
			continue
		}
		newClasses++
		if len(ids) > 1 {
			fresh = append(fresh, ids)
		}
	}
	ext := attrExt{rewired: rewired}
	if len(extended) == 0 && len(fresh) == 0 {
		ext.p = &pli.PLI{
			Attr:        a,
			Clusters:    old.Clusters,
			NumClusters: old.NumClusters + newClasses,
			NumRows:     len(newRows),
		}
		ext.shared = true
		return ext
	}
	clusters := make([][]int32, 0, len(old.Clusters)+len(fresh))
	for cid, c := range old.Clusters {
		if add, ok := extended[cid]; ok {
			nc := make([]int32, 0, len(c)+len(add))
			nc = append(append(nc, c...), add...)
			clusters = append(clusters, nc)
		} else {
			clusters = append(clusters, c)
		}
	}
	clusters = append(clusters, fresh...)
	// First record ids are unique across disjoint clusters, so this order
	// is total — identical to the cold build's by-first-id sortation.
	sort.Slice(clusters, func(i, j int) bool { return clusters[i][0] < clusters[j][0] })
	ext.p = &pli.PLI{
		Attr:        a,
		Clusters:    clusters,
		NumClusters: old.NumClusters + newClasses,
		NumRows:     len(newRows),
	}
	return ext
}
