package worker

import (
	"bytes"
	"testing"

	"repro/internal/hierarchy"
	"repro/internal/image"
	"repro/internal/keys"
)

// FuzzWorkerReadRequest feeds arbitrary bytes to the request decoders
// behind worker.query, worker.groupby and worker.queryreplica, as a
// two-dimensional schema's worker runs them. No input
// may panic one, and whatever a decoder accepts must re-encode to a
// payload that decodes to the same request.
func FuzzWorkerReadRequest(f *testing.F) {
	const dims = 2
	rect := keys.NewRect(hierarchy.Interval{Lo: 3, Hi: 40}, hierarchy.Interval{Lo: 0, Hi: 39})
	ids := []image.ShardID{0, 7, 300}
	f.Add(EncodeQueryRequestRollup(rect, ids, -1))
	f.Add(EncodeQueryRequestRollup(rect, ids, 2))
	f.Add(EncodeGroupByRequest(rect, 1, 0, ids, -1))
	f.Add(EncodeGroupByRequest(rect, 0, 1, nil, 0))
	f.Add(EncodeReplicaQueryRequest(rect, ids, 1024))
	f.Fuzz(func(t *testing.T, p []byte) {
		if q, ids, defIdx, err := decodeQueryRequest(p, dims); err == nil {
			b := EncodeQueryRequestRollup(q, ids, defIdx)
			q2, ids2, defIdx2, err := decodeQueryRequest(b, dims)
			if err != nil {
				t.Fatalf("re-encoded query request rejected: %v", err)
			}
			if !bytes.Equal(EncodeQueryRequestRollup(q2, ids2, defIdx2), b) {
				t.Fatalf("query request round trip: %v %v %d became %v %v %d", q, ids, defIdx, q2, ids2, defIdx2)
			}
		}
		if base, dim, level, ids, defIdx, err := decodeGroupByRequest(p, dims); err == nil {
			b := EncodeGroupByRequest(base, dim, level, ids, defIdx)
			base2, dim2, level2, ids2, defIdx2, err := decodeGroupByRequest(b, dims)
			if err != nil {
				t.Fatalf("re-encoded group-by request rejected: %v", err)
			}
			if !bytes.Equal(EncodeGroupByRequest(base2, dim2, level2, ids2, defIdx2), b) {
				t.Fatalf("group-by request round trip: %v %d %d %v %d became %v %d %d %v %d",
					base, dim, level, ids, defIdx, base2, dim2, level2, ids2, defIdx2)
			}
		}
		if q, ids, maxLag, err := decodeReplicaQueryRequest(p, dims); err == nil {
			b := EncodeReplicaQueryRequest(q, ids, maxLag)
			q2, ids2, maxLag2, err := decodeReplicaQueryRequest(b, dims)
			if err != nil {
				t.Fatalf("re-encoded replica query request rejected: %v", err)
			}
			if !bytes.Equal(EncodeReplicaQueryRequest(q2, ids2, maxLag2), b) {
				t.Fatalf("replica query request round trip: %v %v %d became %v %v %d", q, ids, maxLag, q2, ids2, maxLag2)
			}
		}
	})
}
