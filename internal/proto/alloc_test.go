package proto

import (
	"bytes"
	"io"
	"testing"

	"mobispatial/internal/geom"
)

// The zero-allocation regression tests for the wire hot path: once the
// pools are warm, encoding a frame and decoding+releasing a frame must not
// touch the heap. testing.AllocsPerRun runs the body once to warm up before
// measuring, which primes the pools.

func TestFrameEncodeZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	reply := &IDListMsg{ID: 1, IDs: []uint32{10, 20, 30, 40, 50, 60, 70, 80}}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := WriteMessage(io.Discard, reply); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("warm WriteMessage: %.1f allocs/op, want 0", n)
	}

	var buf []byte
	if n := testing.AllocsPerRun(200, func() {
		var err error
		buf, err = AppendFrame(buf[:0], reply)
		if err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("warm AppendFrame: %.1f allocs/op, want 0", n)
	}
}

func TestFrameDecodeZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	frames := [][]byte{}
	for _, m := range []Message{
		&QueryMsg{ID: 1, Kind: KindRange, Mode: ModeIDs,
			Window: geom.Rect{Max: geom.Point{X: 10, Y: 10}}},
		&IDListMsg{ID: 2, IDs: []uint32{1, 2, 3, 4, 5, 6, 7, 8}},
		&DataListMsg{ID: 3, Records: []Record{
			{ID: 1, Seg: geom.Segment{A: geom.Point{X: 1, Y: 1}, B: geom.Point{X: 2, Y: 2}}},
			{ID: 2, Seg: geom.Segment{A: geom.Point{X: 3, Y: 3}, B: geom.Point{X: 4, Y: 4}}},
		}},
		&BatchQueryMsg{ID: 4, Queries: []QueryMsg{
			{Kind: KindPoint, Mode: ModeIDs, Point: geom.Point{X: 1, Y: 1}},
			{Kind: KindRange, Mode: ModeIDs, Window: geom.Rect{Max: geom.Point{X: 2, Y: 2}}},
		}},
		&BatchReplyMsg{ID: 5, Items: []BatchItem{
			{IDs: []uint32{1, 2, 3}},
			{Recs: []Record{{ID: 9, Seg: geom.Segment{A: geom.Point{X: 1, Y: 1}, B: geom.Point{X: 2, Y: 2}}}}},
		}},
	} {
		f, err := EncodeMessage(m)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, f)
	}
	rd := bytes.NewReader(nil)
	if n := testing.AllocsPerRun(200, func() {
		for _, f := range frames {
			rd.Reset(f)
			m, _, err := ReadMessage(rd)
			if err != nil {
				t.Fatal(err)
			}
			ReleaseMessage(m)
		}
	}); n != 0 {
		t.Fatalf("warm ReadMessage+ReleaseMessage: %.2f allocs/op, want 0", n)
	}
}

// TestCompactCodecZeroAlloc covers the varint and kind-shaped codecs at
// realistic sizes: a warm encode+decode of a 1,000-id list and of a
// 16-query batch allocates nothing.
func TestCompactCodecZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	ids := make([]uint32, 1000)
	for i := range ids {
		ids[i] = uint32(i*i) % 139_006 // unsorted: deltas of both signs
	}
	batch := &BatchQueryMsg{ID: 2, TimeoutMicros: 1000}
	for i := 0; i < 16; i++ {
		q := QueryMsg{Kind: uint8(i % 3), Mode: ModeIDs, K: 8,
			Point:  geom.Point{X: float64(i), Y: 1},
			Window: geom.Rect{Max: geom.Point{X: float64(i + 1), Y: 1}}}
		if i%4 == 0 {
			q.Eps = 0.5
		}
		batch.Queries = append(batch.Queries, q)
	}
	for _, m := range []Message{&IDListMsg{ID: 1, Epoch: 7, IDs: ids}, batch} {
		var buf []byte
		rd := bytes.NewReader(nil)
		if n := testing.AllocsPerRun(200, func() {
			var err error
			if buf, err = AppendFrame(buf[:0], m); err != nil {
				t.Fatal(err)
			}
			rd.Reset(buf)
			got, _, err := ReadMessage(rd)
			if err != nil {
				t.Fatal(err)
			}
			ReleaseMessage(got)
		}); n != 0 {
			t.Fatalf("warm %v encode+decode: %.2f allocs/op, want 0", m.Type(), n)
		}
	}
}
