package proto

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"reflect"
	"slices"
	"testing"

	"mobispatial/internal/geom"
)

// allMessages returns one populated instance of every wire message type used
// by internal/serve.
func allMessages() []Message {
	return []Message{
		&QueryMsg{ID: 7, Kind: KindRange, Mode: ModeIDs,
			Window:        geom.Rect{Min: geom.Point{X: 1, Y: 2}, Max: geom.Point{X: 30, Y: 40}},
			Eps:           2.0,
			TimeoutMicros: 250_000},
		&QueryMsg{ID: 8, Kind: KindPoint, Mode: ModeData, Point: geom.Point{X: -5.5, Y: 12.25}, Eps: 1},
		&QueryMsg{ID: 9, Kind: KindNN, Mode: ModeIDs, K: 5, Point: geom.Point{X: 0, Y: 0}},
		&IDListMsg{ID: 7, IDs: []uint32{1, 2, 3, 0xFFFFFFFF}},
		&IDListMsg{ID: 10, IDs: nil},
		&DataListMsg{ID: 11, Records: []Record{
			{ID: 4, Seg: geom.Segment{A: geom.Point{X: 1, Y: 1}, B: geom.Point{X: 2, Y: 2}}},
			{ID: 5, Seg: geom.Segment{A: geom.Point{X: -1, Y: 0.5}, B: geom.Point{X: 0, Y: 0}}},
		}},
		&DataListMsg{ID: 12},
		&ShipmentReqMsg{ID: 13,
			Window:      geom.Rect{Min: geom.Point{X: 0, Y: 0}, Max: geom.Point{X: 100, Y: 100}},
			BudgetBytes: 1 << 20, RecordBytes: 76, TimeoutMicros: 1_000_000},
		&ShipmentMsg{ID: 13,
			Coverage: geom.Rect{Min: geom.Point{X: -10, Y: -10}, Max: geom.Point{X: 110, Y: 110}},
			Records: []Record{
				{ID: 9, Seg: geom.Segment{A: geom.Point{X: 3, Y: 4}, B: geom.Point{X: 5, Y: 6}}},
			}},
		&ShipmentMsg{ID: 14, Coverage: geom.EmptyRect()}, // no-guarantee shipment
		&ErrorMsg{ID: 15, Code: CodeOverload, Text: "too many in-flight requests"},
		&PingMsg{ID: 16, Payload: []byte("abcdefgh")},
		&PingMsg{ID: 17},
		&StatsReqMsg{ID: 18},
		&StatsMsg{ID: 18, UptimeMicros: 12_345_678,
			Counters: []StatCounter{
				{Name: "serve_requests_total", Value: 42},
				{Name: `serve_queries_total{kind="range",mode="ids"}`, Value: 7},
			},
			Gauges: []StatGauge{{Name: "client_link_bandwidth_bps", Value: 2e6}},
			Hists: []StatHist{{
				Name: `serve_exec_seconds{kind="point"}`, Count: 42,
				Mean: 0.002, Min: 0.0001, Max: 0.5, P50: 0.0015, P95: 0.02, P99: 0.3,
			}},
		},
		&StatsMsg{ID: 19}, // an empty snapshot is legal
		&BatchQueryMsg{ID: 20, TimeoutMicros: 500_000, Queries: []QueryMsg{
			{Kind: KindRange, Mode: ModeIDs,
				Window: geom.Rect{Min: geom.Point{X: 1, Y: 2}, Max: geom.Point{X: 3, Y: 4}}},
			{Kind: KindPoint, Mode: ModeData, Point: geom.Point{X: 9, Y: 9}, Eps: 0.5},
			{Kind: KindNN, Mode: ModeIDs, K: 3, Point: geom.Point{X: -1, Y: -2}},
		}},
		&BatchReplyMsg{ID: 20, Items: []BatchItem{
			{IDs: []uint32{5, 6, 7}},
			{Recs: []Record{{ID: 8, Seg: geom.Segment{A: geom.Point{X: 1, Y: 1}, B: geom.Point{X: 2, Y: 2}}}}},
			{Err: CodeBadRequest, Text: "k too large"},
			{}, // an empty answer is an empty id list
		}},
		&NNQueryMsg{ID: 21, Point: geom.Point{X: 3.5, Y: -7}, K: 8, Bound: 123.25, TimeoutMicros: 100_000},
		&NNQueryMsg{ID: 22, Point: geom.Point{X: 0, Y: 0}, Bound: math.Inf(1)}, // unbounded leg
		&NeighborsMsg{ID: 21, Neighbors: []Neighbor{{ID: 4, Dist: 0}, {ID: 9, Dist: 12.5}}},
		&NeighborsMsg{ID: 23}, // empty answer
		&SummaryReqMsg{ID: 24},
		&SummaryMsg{ID: 24, NumRanges: 3, Items: 1000,
			Bounds: geom.Rect{Min: geom.Point{X: 0, Y: 0}, Max: geom.Point{X: 90, Y: 90}},
			Ranges: []RangeInfo{
				{Index: 0, Items: 400, Lo: 0, Hi: 99, Version: 7,
					MBR: geom.Rect{Min: geom.Point{X: 0, Y: 0}, Max: geom.Point{X: 50, Y: 40}}},
				{Index: 2, Items: 600, Lo: 200, Hi: 1 << 40, Version: 1 << 50,
					MBR: geom.Rect{Min: geom.Point{X: 30, Y: 20}, Max: geom.Point{X: 90, Y: 90}}},
			}},
		&SummaryMsg{ID: 25, Bounds: geom.EmptyRect()}, // an empty backend is legal
		&InsertMsg{ID: 26, ObjID: 150_000,
			Seg:           geom.Segment{A: geom.Point{X: 10, Y: 20}, B: geom.Point{X: 11, Y: 21}},
			TimeoutMicros: 100_000},
		&InsertMsg{ID: 27, ObjID: 0, Seg: geom.Segment{}}, // zero-area point object
		&DeleteMsg{ID: 28, ObjID: 150_000, TimeoutMicros: 50_000},
		&MoveMsg{ID: 29, ObjID: 150_001,
			Seg: geom.Segment{A: geom.Point{X: -3.5, Y: 7}, B: geom.Point{X: -3.5, Y: 7}}},
		&UpdateAckMsg{ID: 29, ObjID: 150_001, Epoch: 42, Existed: true, Owned: true},
		&UpdateAckMsg{ID: 30, ObjID: 5, Epoch: 0}, // miss on a non-owning server
	}
}

// TestWireRoundTrip encodes and decodes every message type and requires the
// decoded value to equal the original.
func TestWireRoundTrip(t *testing.T) {
	for _, m := range allMessages() {
		var buf bytes.Buffer
		n, err := WriteMessage(&buf, m)
		if err != nil {
			t.Fatalf("%v: write: %v", m.Type(), err)
		}
		if n != buf.Len() {
			t.Fatalf("%v: WriteMessage reported %d bytes, wrote %d", m.Type(), n, buf.Len())
		}
		got, rn, err := ReadMessage(&buf)
		if err != nil {
			t.Fatalf("%v: read: %v", m.Type(), err)
		}
		if rn != n {
			t.Fatalf("%v: ReadMessage reported %d bytes, frame was %d", m.Type(), rn, n)
		}
		if got.Type() != m.Type() || got.RequestID() != m.RequestID() {
			t.Fatalf("%v: type/id mismatch: got %v id %d", m.Type(), got.Type(), got.RequestID())
		}
		if !wireEqual(m, got) {
			t.Errorf("%v: round trip mismatch:\n sent %+v\n got  %+v", m.Type(), m, got)
		}
	}
}

// wireEqual compares messages, treating nil and empty slices as equal (the
// wire cannot distinguish them) and empty rectangles as equal regardless of
// their corner representation.
func wireEqual(a, b Message) bool {
	switch x := a.(type) {
	case *IDListMsg:
		y := b.(*IDListMsg)
		return x.ID == y.ID && slicesEqual(x.IDs, y.IDs)
	case *DataListMsg:
		y := b.(*DataListMsg)
		return x.ID == y.ID && recordsEqual(x.Records, y.Records)
	case *ShipmentMsg:
		y := b.(*ShipmentMsg)
		if x.ID != y.ID || !recordsEqual(x.Records, y.Records) {
			return false
		}
		if x.Coverage.IsEmpty() || y.Coverage.IsEmpty() {
			return x.Coverage.IsEmpty() == y.Coverage.IsEmpty()
		}
		return x.Coverage == y.Coverage
	case *PingMsg:
		y := b.(*PingMsg)
		return x.ID == y.ID && bytes.Equal(x.Payload, y.Payload)
	case *NeighborsMsg:
		y := b.(*NeighborsMsg)
		return x.ID == y.ID && slices.Equal(x.Neighbors, y.Neighbors)
	case *BatchReplyMsg:
		y := b.(*BatchReplyMsg)
		if x.ID != y.ID || len(x.Items) != len(y.Items) {
			return false
		}
		for i := range x.Items {
			xi, yi := &x.Items[i], &y.Items[i]
			if xi.Err != yi.Err || xi.Text != yi.Text ||
				!slicesEqual(xi.IDs, yi.IDs) || !recordsEqual(xi.Recs, yi.Recs) {
				return false
			}
		}
		return true
	case *BatchQueryMsg:
		y := b.(*BatchQueryMsg)
		if x.ID != y.ID || x.TimeoutMicros != y.TimeoutMicros || len(x.Queries) != len(y.Queries) {
			return false
		}
		for i := range x.Queries {
			if x.Queries[i] != y.Queries[i] {
				return false
			}
		}
		return true
	}
	return reflect.DeepEqual(a, b)
}

func slicesEqual(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func recordsEqual(a, b []Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestWireSequence streams several frames through one buffer and reads them
// back in order — the pipelining case.
func TestWireSequence(t *testing.T) {
	msgs := allMessages()
	var buf bytes.Buffer
	for _, m := range msgs {
		if _, err := WriteMessage(&buf, m); err != nil {
			t.Fatalf("write %v: %v", m.Type(), err)
		}
	}
	for i, want := range msgs {
		got, _, err := ReadMessage(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Type() != want.Type() || got.RequestID() != want.RequestID() {
			t.Fatalf("frame %d: got %v/%d want %v/%d",
				i, got.Type(), got.RequestID(), want.Type(), want.RequestID())
		}
	}
	if _, _, err := ReadMessage(&buf); err != io.EOF {
		t.Fatalf("after last frame: got %v, want io.EOF", err)
	}
}

// TestWireValidateRejects exercises Validate on malformed messages.
func TestWireValidateRejects(t *testing.T) {
	bad := []Message{
		&QueryMsg{ID: 1, Kind: 9},
		&QueryMsg{ID: 1, Kind: KindPoint, Mode: 9},
		&QueryMsg{ID: 1, Kind: KindNN, Mode: ModeFilter, Point: geom.Point{}},
		&QueryMsg{ID: 1, Kind: KindRange, Window: geom.EmptyRect()},
		&QueryMsg{ID: 1, Kind: KindPoint, Point: geom.Point{X: math.NaN()}},
		&QueryMsg{ID: 1, Kind: KindPoint, Eps: math.Inf(1)},
		&ShipmentReqMsg{ID: 1, BudgetBytes: 0, RecordBytes: 76},
		&ShipmentReqMsg{ID: 1, BudgetBytes: 4096, RecordBytes: 4},
		&ErrorMsg{ID: 1, Code: 0},
		&ErrorMsg{ID: 1, Code: CodeInternal, Text: string(make([]byte, MaxErrorText+1))},
		&PingMsg{ID: 1, Payload: make([]byte, MaxPingPayload+1)},
		&DataListMsg{ID: 1, Records: []Record{{Seg: geom.Segment{A: geom.Point{X: math.NaN()}}}}},
		&StatsMsg{ID: 1, Counters: []StatCounter{{Name: "", Value: 1}}},
		&StatsMsg{ID: 1, Gauges: []StatGauge{{Name: "g", Value: math.NaN()}}},
		&StatsMsg{ID: 1, Hists: []StatHist{{Name: "h", Mean: math.NaN()}}},
		&StatsMsg{ID: 1, Counters: []StatCounter{{Name: string(make([]byte, MaxStatName+1))}}},
		&StatsMsg{ID: 1, Counters: make([]StatCounter, MaxStatsEntries+1)},
		&BatchQueryMsg{ID: 1},
		&BatchQueryMsg{ID: 1, Queries: make([]QueryMsg, MaxBatchQueries+1)},
		&BatchQueryMsg{ID: 1, Queries: []QueryMsg{{Kind: 9}}},
		&BatchReplyMsg{ID: 1},
		&BatchReplyMsg{ID: 1, Items: []BatchItem{{IDs: []uint32{1}, Recs: []Record{{ID: 2}}}}},
		&BatchReplyMsg{ID: 1, Items: []BatchItem{{Err: CodeInternal, IDs: []uint32{1}}}},
		&BatchReplyMsg{ID: 1, Items: []BatchItem{{Text: "orphan text"}}},
		&BatchReplyMsg{ID: 1, Items: []BatchItem{
			{Recs: []Record{{Seg: geom.Segment{A: geom.Point{X: math.NaN()}}}}}}},
		&NNQueryMsg{ID: 1, Point: geom.Point{X: math.NaN()}},
		&NNQueryMsg{ID: 1, Bound: math.NaN()},
		&NNQueryMsg{ID: 1, Bound: -1},
		&NeighborsMsg{ID: 1, Neighbors: []Neighbor{{ID: 2, Dist: math.NaN()}}},
		&NeighborsMsg{ID: 1, Neighbors: []Neighbor{{ID: 2, Dist: -0.5}}},
		&SummaryMsg{ID: 1, NumRanges: 2, Ranges: []RangeInfo{{Index: 2}}},
		&SummaryMsg{ID: 1, NumRanges: 1, Ranges: []RangeInfo{{Index: 0, Lo: 9, Hi: 3}}},
		&SummaryMsg{ID: 1, NumRanges: 1, Ranges: []RangeInfo{
			{Index: 0, MBR: geom.Rect{Min: geom.Point{X: math.NaN()}}}}},
		&SummaryMsg{ID: 1, Ranges: []RangeInfo{{Index: 0}}}, // zero-range cluster
		&SummaryMsg{ID: 1, NumRanges: MaxSummaryRanges + 1, Ranges: make([]RangeInfo, MaxSummaryRanges+1)},
		&InsertMsg{ID: 1, Seg: geom.Segment{A: geom.Point{X: math.NaN()}}},
		&InsertMsg{ID: 1, Seg: geom.Segment{B: geom.Point{Y: math.Inf(1)}}},
		&MoveMsg{ID: 1, Seg: geom.Segment{A: geom.Point{Y: math.NaN()}}},
		&MoveMsg{ID: 1, Seg: geom.Segment{B: geom.Point{X: math.Inf(-1)}}},
	}
	for _, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("%T %+v: Validate accepted malformed message", m, m)
		}
		if _, err := EncodeMessage(m); err == nil {
			t.Errorf("%T: EncodeMessage accepted malformed message", m)
		}
	}
}

// TestWireRejectsCorruptFrames feeds truncated and corrupt frames to
// ReadMessage.
func TestWireRejectsCorruptFrames(t *testing.T) {
	frame, err := EncodeMessage(&IDListMsg{ID: 3, IDs: []uint32{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}

	// Truncations at every boundary must error, never panic.
	for cut := 0; cut < len(frame); cut++ {
		if _, _, err := ReadMessage(bytes.NewReader(frame[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}

	// Unknown message type.
	badType := append([]byte(nil), frame...)
	badType[4] = 0xEE
	if _, _, err := ReadMessage(bytes.NewReader(badType)); err == nil {
		t.Fatal("unknown type accepted")
	}

	// Inner count disagreeing with the payload length.
	badCount := append([]byte(nil), frame...)
	badCount[FrameHeaderBytes+12] = 99 // id-list count varint (after id u32 + epoch u64)
	if _, _, err := ReadMessage(bytes.NewReader(badCount)); err == nil {
		t.Fatal("mismatched count accepted")
	}

	// Oversized frame header.
	huge := append([]byte(nil), frame...)
	huge[0], huge[1], huge[2], huge[3] = 0xFF, 0xFF, 0xFF, 0xFF
	if _, _, err := ReadMessage(bytes.NewReader(huge)); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

// TestWireFrameLayout pins the frame header layout so independent
// implementations can interoperate.
func TestWireFrameLayout(t *testing.T) {
	frame, err := EncodeMessage(&PingMsg{ID: 0x01020304, Payload: []byte{0xAA}})
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{
		0, 0, 0, 9, // payload length: 4 id + 4 len + 1 byte
		byte(MsgPing),
		1, 2, 3, 4, // request id
		0, 0, 0, 1, // payload length
		0xAA,
	}
	if !bytes.Equal(frame, want) {
		t.Fatalf("frame layout drifted:\n got  %v\n want %v", frame, want)
	}
}

// TestQueryFrameSizes pins the kind-shaped query frames: each kind carries
// only its own geometry, and eps costs 8 bytes only when it is set.
func TestQueryFrameSizes(t *testing.T) {
	pt := geom.Point{X: 3, Y: 4}
	win := geom.Rect{Max: geom.Point{X: 1, Y: 1}}
	for _, c := range []struct {
		q    QueryMsg
		want int
	}{
		{QueryMsg{Kind: KindPoint, Mode: ModeIDs, Point: pt}, 30},
		{QueryMsg{Kind: KindRange, Mode: ModeIDs, Window: win}, 46},
		{QueryMsg{Kind: KindNN, Mode: ModeIDs, Point: pt, K: 8}, 32},
		{QueryMsg{Kind: KindPoint, Mode: ModeData, Point: pt, Eps: 2}, 38},
	} {
		f, err := EncodeMessage(&c.q)
		if err != nil {
			t.Fatal(err)
		}
		if len(f) != c.want {
			t.Errorf("kind %d eps %v: %d-byte frame, want %d", c.q.Kind, c.q.Eps, len(f), c.want)
		}
	}
}

// TestIDListKeepsOrder round-trips distance-ordered (unsorted) id lists,
// whose deltas go negative, including the extremes of the id space.
func TestIDListKeepsOrder(t *testing.T) {
	for _, ids := range [][]uint32{
		{907, 12, 5000, 13, 0, 0xFFFFFFFF, 0, 0xFFFFFFFF},
		{0xFFFFFFFF, 0xFFFFFFFE, 1},
		{42, 42, 42},
	} {
		f, err := EncodeMessage(&IDListMsg{ID: 1, IDs: ids})
		if err != nil {
			t.Fatal(err)
		}
		m, _, err := ReadMessage(bytes.NewReader(f))
		if err != nil {
			t.Fatalf("%v: %v", ids, err)
		}
		if got := m.(*IDListMsg).IDs; !slicesEqual(got, ids) {
			t.Fatalf("order lost: sent %v, got %v", ids, got)
		}
	}
	// A sorted set of nearby ids costs about a byte per id.
	sorted := make([]uint32, 1000)
	for i := range sorted {
		sorted[i] = 100_000 + uint32(3*i)
	}
	f, err := EncodeMessage(&IDListMsg{ID: 1, IDs: sorted})
	if err != nil {
		t.Fatal(err)
	}
	if len(f) > FrameHeaderBytes+12+2+3+len(sorted) {
		t.Fatalf("1000 sorted ids took %d bytes", len(f))
	}
}

// rawFrame wraps a payload in a frame header.
func rawFrame(t MsgType, payload ...byte) []byte {
	f := binary.BigEndian.AppendUint32(nil, uint32(len(payload)))
	return append(append(f, byte(t)), payload...)
}

// idListFrame is an id-list frame whose payload after id and epoch is body.
func idListFrame(body ...byte) []byte {
	return rawFrame(MsgIDList, append(make([]byte, 12), body...)...)
}

// hostileFrames are malformed compact frames the decoder must reject, each
// named by the defect it carries.
func hostileFrames() map[string][]byte {
	top := binary.AppendUvarint(nil, uint64(0xFFFFFFFF)<<1) // zigzag(2^32-1)
	queryBody := func(tag byte) []byte {
		b := []byte{0, 0, 0, 1, tag, 0, 0, 0, 0}
		return append(b, make([]byte, 16)...) // a point
	}
	goodReply, _ := EncodeMessage(&BatchReplyMsg{ID: 1, Items: []BatchItem{{IDs: []uint32{3, 1, 2}}}})
	return map[string][]byte{
		"lying id count":          idListFrame(5, 2),
		"huge id count":           idListFrame(0xFF, 0xFF, 0xFF, 0x7F, 2),
		"6-byte count varint":     idListFrame(0x81, 0x80, 0x80, 0x80, 0x80, 0x00),
		"6-byte id varint":        idListFrame(1, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01),
		"non-minimal varint":      idListFrame(0x81, 0x00, 2),
		"delta below 0":           idListFrame(1, 1),
		"delta past 2^32":         idListFrame(append(append([]byte{2}, top...), 2)...),
		"5-byte delta past 2^32":  idListFrame(1, 0x80, 0x80, 0x80, 0x80, 0x7F),
		"trailing id byte":        idListFrame(1, 2, 0),
		"unknown query tag bit 5": rawFrame(MsgQuery, queryBody(0x20)...),
		"unknown query tag bit 7": rawFrame(MsgQuery, queryBody(0x80)...),
		"query kind 3":            rawFrame(MsgQuery, queryBody(0x03)...),
		"eps flagged but zero":    rawFrame(MsgQuery, append(queryBody(queryEpsBit), make([]byte, 8)...)...),
		"batch count past payload": rawFrame(MsgBatchQuery, 0, 0, 0, 1, 0, 0, 0, 0, 0, 2,
			0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
		"truncated compact batch item": func() []byte {
			f := append([]byte(nil), goodReply[:len(goodReply)-1]...)
			binary.BigEndian.PutUint32(f, uint32(len(f)-FrameHeaderBytes))
			return f
		}(),
	}
}

// TestCompactDecodeRejectsHostileInput requires every hostile frame to be
// refused with an error.
func TestCompactDecodeRejectsHostileInput(t *testing.T) {
	for name, f := range hostileFrames() {
		if m, _, err := ReadMessage(bytes.NewReader(f)); err == nil {
			t.Errorf("%s: accepted as %+v", name, m)
		}
	}
	// Every truncation of a mixed compact batch and reply is refused too.
	for _, m := range []Message{
		&BatchQueryMsg{ID: 1, Queries: []QueryMsg{
			{Kind: KindNN, Mode: ModeIDs, K: 4},
			{Kind: KindPoint, Mode: ModeIDs, Eps: 3},
			{Kind: KindRange, Mode: ModeFilter, Window: geom.Rect{Max: geom.Point{X: 1, Y: 1}}},
		}},
		&BatchReplyMsg{ID: 1, Items: []BatchItem{{IDs: []uint32{9, 1 << 31, 4}}, {}, {IDs: []uint32{7}}}},
	} {
		f, err := EncodeMessage(m)
		if err != nil {
			t.Fatal(err)
		}
		for cut := FrameHeaderBytes; cut < len(f); cut++ {
			short := append([]byte(nil), f[:cut]...)
			binary.BigEndian.PutUint32(short, uint32(cut-FrameHeaderBytes))
			if _, _, err := ReadMessage(bytes.NewReader(short)); err == nil {
				t.Fatalf("%v cut to %d of %d bytes accepted", m.Type(), cut, len(f))
			}
		}
	}
}

// TestIDListOverFrameLimitErrors checks that a list too long for one frame
// fails to encode instead of being cut short.
func TestIDListOverFrameLimitErrors(t *testing.T) {
	m := &IDListMsg{ID: 1, IDs: make([]uint32, maxListIDs+1)}
	if err := m.Validate(); err == nil {
		t.Fatal("Validate accepted an over-limit id list")
	}
	dst := []byte{1, 2, 3}
	out, err := AppendFrame(dst, m)
	if err == nil {
		t.Fatal("AppendFrame encoded an over-limit id list")
	}
	if len(out) != len(dst) {
		t.Fatalf("failed encode left %d bytes, want the %d it was given", len(out), len(dst))
	}
	// The worst case at the limit still fits a frame.
	if 12+maxVarintBytes+maxListIDs*maxVarintBytes > MaxFramePayload {
		t.Fatal("maxListIDs admits lists that overflow a frame")
	}
}
