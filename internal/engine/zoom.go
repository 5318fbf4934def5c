package engine

import (
	"context"
	"errors"

	"insightnotes/internal/annotation"
	"insightnotes/internal/exec"
	"insightnotes/internal/sql"
	"insightnotes/internal/storage"
	"insightnotes/internal/types"
	"insightnotes/internal/zoomin"
)

// ZoomRowResult is the zoom-in expansion of one matched result row: the
// row's data tuple and the raw annotations behind the addressed summary
// element.
type ZoomRowResult struct {
	Tuple       types.Tuple
	Annotations []annotation.Annotation
}

// ZoomInRequest is the programmatic form of the ZOOMIN command (Figure 3):
// reference a past query by QID, refine its rows with a predicate, and
// expand element Index of the named summary instance.
type ZoomInRequest struct {
	QID      int
	Where    sql.Expr // optional refinement over the result schema
	Instance string
	Index    int // 1-based element index (class label / group / snippet)
}

// ZoomIn executes a zoom-in operation under ctx. The result is served from
// the materialization cache when resident; otherwise the referenced query
// is transparently re-executed. The context governs that cache-miss
// re-execution path: a cancelled zoom-in aborts the recreation query and
// leaves no partial cache entry. The returned boolean reports the cache
// hit.
func (db *DB) ZoomIn(ctx context.Context, req ZoomInRequest) ([]ZoomRowResult, bool, error) {
	db.stmtMu.RLock()
	defer db.stmtMu.RUnlock()
	return db.zoomIn(ctx, req)
}

// zoomIn is ZoomIn under the shared statement lock, which callers hold.
func (db *DB) zoomIn(ctx context.Context, req ZoomInRequest) ([]ZoomRowResult, bool, error) {
	out, hit, err := db.expandZoom(ctx, req)
	if m := db.metrics; m != nil {
		m.zoomRequests.Inc()
		if cancellationCause(err) != "" {
			m.zoomCancelled.Inc()
		}
	}
	return out, hit, err
}

func (db *DB) expandZoom(ctx context.Context, req ZoomInRequest) ([]ZoomRowResult, bool, error) {
	cached, hit, err := db.resultFor(ctx, req.QID)
	if err != nil {
		return nil, false, err
	}
	var pred *exec.Compiled
	if req.Where != nil {
		pred, err = exec.Compile(req.Where, cached.Schema())
		if err != nil {
			return nil, hit, err
		}
	}
	rows, err := zoomin.Expand(cached, pred, req.Instance, req.Index)
	if err != nil {
		return nil, hit, err
	}
	var out []ZoomRowResult
	for _, row := range rows {
		// Cached results are snapshots: annotations retracted since the
		// query ran are silently skipped rather than failing the zoom-in.
		// A damaged page is not skipped: the zoom-in sheds with it.
		anns := make([]annotation.Annotation, 0, len(row.IDs))
		for _, id := range row.IDs {
			a, err := db.anns.Get(id)
			if errors.Is(err, storage.ErrCorrupt) {
				return nil, hit, err
			}
			if err != nil {
				continue
			}
			anns = append(anns, a)
		}
		if len(anns) == 0 {
			continue
		}
		out = append(out, ZoomRowResult{Tuple: row.Tuple, Annotations: anns})
	}
	return out, hit, nil
}

// zoomResultSchema describes the tabular rendering of zoom-in output.
func zoomResultSchema() types.Schema {
	return types.NewSchema(
		types.Column{Name: "ann_id", Kind: types.KindInt},
		types.Column{Name: "author", Kind: types.KindString},
		types.Column{Name: "created", Kind: types.KindInt},
		types.Column{Name: "text", Kind: types.KindString},
		types.Column{Name: "title", Kind: types.KindString},
		types.Column{Name: "document", Kind: types.KindString},
	)
}

// zoomRows flattens zoom results into tuples of zoomResultSchema.
func zoomRows(results []ZoomRowResult) []*exec.Row {
	var out []*exec.Row
	for _, r := range results {
		for _, a := range r.Annotations {
			out = append(out, &exec.Row{Tuple: types.Tuple{
				types.NewInt(int64(a.ID)),
				types.NewString(a.Author),
				types.NewInt(a.Created),
				types.NewString(a.Text),
				types.NewString(a.Title),
				types.NewString(a.Document),
			}})
		}
	}
	return out
}
