package server

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/hierarchy"
	"repro/internal/keys"
	"repro/internal/wire"
	"repro/internal/worker"
)

// FuzzServerRequest feeds arbitrary bytes to the request decoders behind
// server.insert / server.bulkload, server.query and server.groupby,
// read-options trailer included. No input may panic one, and whatever a
// decoder accepts must re-encode to a payload that decodes to the same
// request: encode(decode(encode(x))) == encode(x).
func FuzzServerRequest(f *testing.F) {
	const dims = 2
	rect := keys.NewRect(hierarchy.Interval{Lo: 3, Hi: 40}, hierarchy.Interval{Lo: 0, Hi: 39})
	items := []core.Item{{Coords: []uint64{5, 7}, Measure: 1.5}, {Coords: []uint64{99, 0}, Measure: -2}}
	f.Add(EncodeItems(dims, items))
	f.Add(EncodeQueryRequest(rect, QueryOptions{}))
	f.Add(EncodeQueryRequest(rect, QueryOptions{NoRollup: true}))
	f.Add(append(EncodeQueryRequest(rect, QueryOptions{}), 0)) // NoRollup byte present but clear
	f.Add(EncodeGroupByRequest(rect, 0, 1))
	f.Add(EncodeGroupByRequestOpts(rect, 1, 0, QueryOptions{NoRollup: true}))
	f.Fuzz(func(t *testing.T, p []byte) {
		if items, err := worker.DecodeItems(wire.NewReader(p), dims); err == nil {
			b := EncodeItems(dims, items)
			again, err := worker.DecodeItems(wire.NewReader(b), dims)
			if err != nil {
				t.Fatalf("re-encoded items rejected: %v", err)
			}
			if !bytes.Equal(EncodeItems(dims, again), b) {
				t.Fatalf("item round trip changed %d items", len(items))
			}
		}
		if q, opts, err := decodeQueryRequest(p, dims); err == nil {
			b := EncodeQueryRequest(q, opts)
			q2, opts2, err := decodeQueryRequest(b, dims)
			if err != nil {
				t.Fatalf("re-encoded query request rejected: %v", err)
			}
			if !bytes.Equal(EncodeQueryRequest(q2, opts2), b) {
				t.Fatalf("query request round trip: %v %+v became %v %+v", q, opts, q2, opts2)
			}
		}
		if q, dim, level, opts, err := decodeGroupByRequest(p, dims); err == nil {
			b := EncodeGroupByRequestOpts(q, dim, level, opts)
			q2, dim2, level2, opts2, err := decodeGroupByRequest(b, dims)
			if err != nil {
				t.Fatalf("re-encoded group-by request rejected: %v", err)
			}
			if !bytes.Equal(EncodeGroupByRequestOpts(q2, dim2, level2, opts2), b) {
				t.Fatalf("group-by request round trip: %v %d %d %+v became %v %d %d %+v",
					q, dim, level, opts, q2, dim2, level2, opts2)
			}
		}
	})
}
