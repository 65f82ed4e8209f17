// Package serve is the real networked counterpart of the paper's simulated
// server: a concurrent TCP service answering point, range, and (k-)NN
// queries — and Fig. 2 index shipments — over the length-prefixed binary
// protocol of internal/proto, against one shared packed R-tree through an
// internal/parallel pool.
//
// Concurrency model:
//
//   - one goroutine per connection reads frames;
//   - each admitted request runs in its own goroutine, so a connection can
//     pipeline requests (responses carry the request id and may return out
//     of order);
//   - admission control bounds the in-flight requests across all
//     connections: when the server is saturated the reader blocks — TCP
//     backpressure — for up to AdmitTimeout before failing the request with
//     CodeOverload;
//   - each request carries a deadline (client-requested, capped by the
//     server); work that finishes past it is answered with CodeDeadline;
//   - Shutdown drains in-flight requests, then closes connections.
package serve

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"mobispatial/internal/dataset"
	"mobispatial/internal/geom"
	"mobispatial/internal/obs"
	"mobispatial/internal/ops"
	"mobispatial/internal/parallel"
	"mobispatial/internal/proto"
	"mobispatial/internal/qcache"
	"mobispatial/internal/rtree"
)

// DefaultPointEps mirrors core.PointEps: the point-query incidence tolerance
// in map units.
const DefaultPointEps = 2.0

// Executor is the query-execution engine a Server drives: the append-first
// query surface shared by *parallel.Pool (one monolithic index, parallelism
// across requests only) and *shard.Pool (Hilbert-sharded scatter-gather,
// parallelism inside each request too). Every method must be safe for any
// number of concurrent callers, and the append methods must honor the
// zero-allocation contract: write into dst's spare capacity, return the
// extended slice. Workers is the engine's concurrency width — the server
// sizes its admission window as a multiple of it.
type Executor interface {
	Workers() int
	Dataset() *dataset.Dataset
	FilterRangeAppend(dst []uint32, w geom.Rect) []uint32
	FilterPointAppend(dst []uint32, pt geom.Point) []uint32
	RangeAppend(dst []uint32, w geom.Rect) []uint32
	PointAppend(dst []uint32, pt geom.Point, eps float64) []uint32
	NearestWith(pt geom.Point, sc *parallel.Scratch) parallel.NearestResult
	KNearestAppend(dst []rtree.Neighbor, pt geom.Point, k int, sc *parallel.Scratch) ([]rtree.Neighbor, bool)
}

// DeadlineExecutor is the optional fallible query surface a distributed
// executor (internal/router) adds to Executor. Local pools never fail and
// never block on a peer, so Executor's methods return no errors and take no
// deadlines; a pool that fans out over the network can do both — a leg can
// find no healthy replica, and the request deadline must cap the slowest
// backend leg rather than being re-applied per hop. When the configured
// Pool implements DeadlineExecutor the server threads each request's
// deadline into these variants and maps returned errors onto wire codes
// (via the ErrCode() method when the error carries one).
type DeadlineExecutor interface {
	FilterRangeAppendUntil(dst []uint32, w geom.Rect, deadline time.Time) ([]uint32, error)
	FilterPointAppendUntil(dst []uint32, pt geom.Point, deadline time.Time) ([]uint32, error)
	RangeAppendUntil(dst []uint32, w geom.Rect, deadline time.Time) ([]uint32, error)
	PointAppendUntil(dst []uint32, pt geom.Point, eps float64, deadline time.Time) ([]uint32, error)
	NearestUntil(pt geom.Point, sc *parallel.Scratch, deadline time.Time) (parallel.NearestResult, error)
	KNearestAppendUntil(dst []rtree.Neighbor, pt geom.Point, k int, sc *parallel.Scratch, deadline time.Time) ([]rtree.Neighbor, error)
}

// BoundedNN is the optional bounded k-NN surface behind MsgNNQuery: the
// distributed tier's cross-server NN leg carries the router's running
// k-th-neighbor bound, and a pool that can prune with it (shard.Pool skips
// whole shards) implements this. Pools without it still answer NN legs via
// the unbounded path — the bound is an optimization, never a correctness
// requirement.
type BoundedNN interface {
	KNearestBoundedAppend(dst []rtree.Neighbor, pt geom.Point, k int, bound float64, sc *parallel.Scratch) ([]rtree.Neighbor, bool)
}

// Updatable is the optional live-update surface behind MsgInsert, MsgDelete,
// and MsgMove (mutable.Pool implements it; the router re-implements it as
// replicated fan-out). Each call applies one idempotent write and returns
// the owning shard's base epoch at apply time (the ack's staleness anchor:
// the write folds into base epoch+1 or later), whether a previous version of
// the object was visible, and whether the executor owns the object's
// position (false when a replicated write merely cleared a stale copy). A
// pool without this surface answers update messages with CodeUnsupported.
type Updatable interface {
	ApplyInsert(id uint32, seg geom.Segment) (epoch uint64, existed, owned bool, err error)
	ApplyDelete(id uint32) (epoch uint64, existed, owned bool, err error)
	ApplyMove(id uint32, seg geom.Segment) (epoch uint64, existed, owned bool, err error)
}

// SegResolver is the optional geometry surface an updatable executor adds:
// data-mode responses need segments for ids the base dataset has never
// heard of (inserted objects sit at or above Dataset().Len(), where
// Dataset().Seg would be out of range) and current geometry for moved ones.
// Executors without it resolve records through the dataset as before.
type SegResolver interface {
	SegOf(id uint32) geom.Segment
}

// RangeReporter is the optional live-summary surface a mutable pool adds
// (mutable.Pool implements it): per-shard version counters and current
// bounds (the qcache.Source half), plus live item counts and the cluster
// range → local shard mapping. A server whose pool reports ranges rebuilds
// its MsgSummary reply from the live state on every request, so a router
// polling summaries sees writes move the per-range (version, MBR, items)
// instead of the frozen registration snapshot. Pools without it keep the
// precomputed static summary.
type RangeReporter interface {
	qcache.Source
	// LocalShard maps a cluster-wide range index to the pool's local shard
	// index (-1 when the range is not held).
	LocalShard(global int) int
	// ShardItems returns the live object count of local shard i.
	ShardItems(i int) int
	// Len and Bounds are the pool-wide totals the summary header carries.
	Len() int
	Bounds() geom.Rect
}

// LiveRangeSet is the optional surface an adaptive pool adds on top of
// RangeReporter (a mutable pool with repartitioning enabled implements it):
// the range LAYOUT itself — the cut table, not just per-range state — can
// change at runtime, so MsgSummary replies must be rebuilt wholesale from
// the pool's current topology instead of patching a fixed-length
// registration template. LiveRangesEnabled gates the behavior: a pool that
// implements the methods but reports false keeps the template path, so a
// non-adaptive mutable pool serves summaries exactly as before.
type LiveRangeSet interface {
	LiveRangesEnabled() bool
	// SummaryRanges appends the pool's current per-range summary rows
	// (key span, items, version, MBR, heat) to dst and returns the
	// cluster-wide range count.
	SummaryRanges(dst []proto.RangeInfo) ([]proto.RangeInfo, int)
}

// HeatReporter is the optional per-shard query-heat surface (mutable.Pool
// implements it): the EWMA query rate the adaptive repartitioner splits and
// merges on, exported through summaries so routers and dashboards can watch
// the workload move.
type HeatReporter interface {
	ShardHeat(i int) float64
}

// BatchExecutor is the optional batch-aware surface a distributed executor
// adds (the Router implements it): one call answers every sub-query of a
// MsgBatchQuery, letting the executor group sub-queries by owning backend
// and issue one wire leg per backend instead of one full fan-out per
// sub-query. items[i] answers qs[i]: the executor appends ids into the
// slot's (already reset) IDs slice or sets Err/Text; slots arriving with
// Err already set were rejected by the server and must be skipped. Record
// materialization for data-mode queries stays with the server, so executors
// always answer in id space.
type BatchExecutor interface {
	RunQueryBatch(qs []proto.QueryMsg, items []proto.BatchItem, deadline time.Time)
}

// Config parameterizes a Server.
type Config struct {
	// Pool executes the queries; required. *parallel.Pool serves one
	// monolithic index; *shard.Pool scatter-gathers across spatial shards.
	Pool Executor
	// Master enables MsgShipmentReq (Fig. 2 subset extraction); nil
	// disables shipments with CodeUnsupported.
	Master *rtree.Tree
	// MaxInFlight bounds concurrently executing requests across all
	// connections; defaults to 4× the pool width.
	MaxInFlight int
	// AdmitTimeout is how long a request may wait for an in-flight slot
	// before it is refused with CodeOverload; defaults to 100ms.
	AdmitTimeout time.Duration
	// RequestTimeout caps one request's server-side time (admission wait
	// included); clients may ask for less, never more. Defaults to 5s.
	RequestTimeout time.Duration
	// WriteTimeout bounds one response write; defaults to 10s.
	WriteTimeout time.Duration
	// PointEps is the default point-query tolerance; DefaultPointEps when 0.
	PointEps float64
	// MaxKNN caps the k of k-NN queries; defaults to 1024.
	MaxKNN int
	// MaxShipmentBudget caps a shipment request's byte budget; defaults to
	// 64 MB (a larger budget is a protocol error).
	MaxShipmentBudget int
	// Obs enables observability: per-kind execution histograms, sampled
	// spans, and the MsgStatsReq snapshot carry this hub's metrics. Nil
	// disables instrumentation (the snapshot then carries only the core
	// counters).
	Obs *obs.Hub
	// Ranges declares the Hilbert key ranges this server holds, reported to
	// routers via MsgSummaryReq. Empty means a monolithic deployment: the
	// server reports one synthetic range covering the whole key space.
	Ranges []proto.RangeInfo
	// NumRanges is the cluster-wide total range count; required when Ranges
	// is set (every backend of one cluster must report the same value).
	NumRanges int
	// Cache enables the server-side query-result cache (internal/qcache);
	// nil disables it. The pool must expose a validity view: a local pool
	// always has one (its own shard versions when mutable, a frozen
	// pseudo-shard otherwise), and a distributed pool (internal/router)
	// qualifies by implementing qcache.Source over its cluster-wide
	// per-range version vector. Setting Cache on a pool with no view is a
	// configuration error New rejects — a cache that cannot be invalidated
	// would serve stale answers silently. See cache.go for the hit path.
	Cache *qcache.Cache

	// testDelay, when set, stalls every query execution — tests use it to
	// fill the admission window and overrun deadlines deterministically.
	testDelay time.Duration
}

func (c *Config) fill() error {
	if c.Pool == nil {
		return fmt.Errorf("serve: Config.Pool is required")
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 4 * c.Pool.Workers()
	}
	if c.AdmitTimeout <= 0 {
		c.AdmitTimeout = 100 * time.Millisecond
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 5 * time.Second
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 10 * time.Second
	}
	if c.PointEps <= 0 {
		c.PointEps = DefaultPointEps
	}
	if c.MaxKNN <= 0 {
		c.MaxKNN = 1024
	}
	if c.MaxShipmentBudget <= 0 {
		c.MaxShipmentBudget = 64 << 20
	}
	if len(c.Ranges) > 0 && c.NumRanges <= 0 {
		return fmt.Errorf("serve: Config.Ranges set without Config.NumRanges")
	}
	return nil
}

// Stats are cumulative server counters, safe to read at any time.
type Stats struct {
	// Conns is the number of connections accepted.
	Conns uint64
	// Served counts successfully answered requests (pings excluded).
	Served uint64
	// Overloads counts requests refused by admission control.
	Overloads uint64
	// Deadlines counts requests that finished past their deadline.
	Deadlines uint64
	// Errors counts bad requests and internal failures.
	Errors uint64
	// Shipments counts served shipment requests (also included in Served).
	Shipments uint64
	// Batches counts served batch requests (each also counts once in
	// Served); BatchQueries counts the sub-queries they carried.
	Batches uint64
	// BatchQueries counts the queries answered inside batch requests.
	BatchQueries uint64
	// Updates counts served insert/delete/move requests (also included in
	// Served).
	Updates uint64
}

// Server is a networked spatial-query server.
type Server struct {
	cfg   Config
	start time.Time
	// dx and bnn are the optional executor surfaces, asserted once at New so
	// the per-request path never repeats the type assertion. Either may be
	// nil: dx enables deadline threading and fallible queries (the router),
	// bnn enables bound-carrying NN legs (the sharded pool).
	dx  DeadlineExecutor
	bnn BoundedNN
	// upd and sr are the optional update surfaces: upd serves the live
	// write path (nil answers CodeUnsupported), sr resolves data-mode
	// geometry for ids the base dataset does not cover.
	upd Updatable
	sr  SegResolver
	// rr is the optional live-summary surface: when the pool reports
	// per-range state, MsgSummary replies are rebuilt live instead of
	// served from the frozen registration snapshot.
	rr RangeReporter
	// lrs is the optional live-range-SET surface: non-nil only when the
	// pool's range layout can change at runtime (adaptive repartitioning),
	// in which case summaries rebuild their whole range table per request.
	lrs LiveRangeSet
	// hr is the optional per-shard heat surface feeding summary heat.
	hr HeatReporter
	// bx is the optional batch-aware executor surface: batches route
	// through it (one leg per owning backend) instead of the per-item
	// loop whenever the result cache is off.
	bx BatchExecutor
	// summary is the precomputed MsgSummaryReq reply (ID filled per request;
	// Ranges shared read-only across replies, and used as the template the
	// live rebuild fills when rr is set).
	summary proto.SummaryMsg
	// qc is the result cache (nil = caching off) and qsrc the validity view
	// its entries are checked against. qsrc is resolved even without a
	// cache: it also feeds the epoch hints stamped on replies, which the
	// client's semantic cache validates shipped sub-indexes with. A
	// DeadlineExecutor pool gets them only by implementing qcache.Source
	// itself (the router's cluster version vector).
	qc   *qcache.Cache
	qsrc qcache.Source
	// em prices cache hits: a hit saves roughly one mean miss execution,
	// accumulated in savedNanos from the missNanos/missCount running mean.
	em         obs.EnergyModel
	missNanos  atomic.Int64
	missCount  atomic.Int64
	savedNanos atomic.Int64
	// sem holds one token per in-flight request.
	sem chan struct{}

	mu       sync.Mutex
	lis      net.Listener
	conns    map[net.Conn]struct{}
	shutdown bool

	connWG sync.WaitGroup // one per live connection

	nConns, nServed, nOverload, nDeadline, nErrors, nShipments atomic.Uint64
	nBatches, nBatchQueries, nUpdates                          atomic.Uint64

	// scratch pools per-request query state (result slices, traversal
	// buffers, response message shells) so a warm request allocates nothing.
	scratch sync.Pool

	metrics serveMetrics
}

// reqScratch is the per-request reusable state. Response messages built from
// it alias its slices, which is safe because conn.write serializes the frame
// before returning — the scratch goes back in the pool only after the
// response bytes are in the connection's write buffer.
type reqScratch struct {
	ids     []uint32
	nbs     []rtree.Neighbor
	psc     parallel.Scratch
	idMsg   proto.IDListMsg
	dataMsg proto.DataListMsg
	batch   proto.BatchReplyMsg
	nbrMsg  proto.NeighborsMsg
	ackMsg  proto.UpdateAckMsg
	// Cache-path state: the pre/post validity views and the superset
	// payload buffers (ids + geometry + NN distances) the cache copies out
	// into on a hit and the miss path executes into before storing.
	pre, post qcache.View
	cids      []uint32
	csegs     []geom.Segment
	cdists    []float64
	// sortBuf is sortIDs' radix scratch.
	sortBuf []uint32
}

// Retention caps for pooled scratch, mirroring internal/proto's: a scratch
// that served an outsized answer is dropped instead of pinning the memory.
const (
	maxScratchIDs     = 64 << 10
	maxScratchRecords = 16 << 10
)

func (s *Server) getScratch() *reqScratch {
	return s.scratch.Get().(*reqScratch)
}

func (s *Server) putScratch(sc *reqScratch) {
	if cap(sc.ids) > maxScratchIDs || cap(sc.dataMsg.Records) > maxScratchRecords ||
		cap(sc.nbrMsg.Neighbors) > maxScratchRecords {
		return
	}
	if cap(sc.cids) > maxScratchIDs || cap(sc.csegs) > maxScratchIDs || cap(sc.cdists) > maxScratchIDs ||
		cap(sc.sortBuf) > maxScratchIDs {
		return
	}
	items := sc.batch.Items[:cap(sc.batch.Items)]
	for i := range items {
		if cap(items[i].IDs) > maxScratchIDs || cap(items[i].Recs) > maxScratchRecords {
			return
		}
	}
	s.scratch.Put(sc)
}

// serveMetrics holds the obs handles the hot path uses, resolved once at New
// so request goroutines never touch the registry maps. All handles are
// nil (no-op) when Config.Obs is nil.
type serveMetrics struct {
	// execHist[kind][mode] is the execution-time histogram of one query
	// shape; shipHist covers shipments, admitHist the admission wait,
	// writeHist the response serialization + write.
	execHist  [3][3]*obs.Histogram
	shipHist  *obs.Histogram
	admitHist *obs.Histogram
	writeHist *obs.Histogram
	rxBytes   *obs.Counter
	txBytes   *obs.Counter
	// writes counts physical connection writes, writeFrames the response
	// frames they carried — their ratio is the flush-coalescing factor.
	writes      *obs.Counter
	writeFrames *obs.Counter
	// Registry mirrors of the core Stats counters, so /metrics sees them
	// without reaching into the Server.
	conns, served, overloads, deadlines, errors, shipments *obs.Counter
	batches, batchQueries                                  *obs.Counter
	// nnLegHist covers MsgNNQuery legs, kept apart from execHist so the
	// per-kind client-query histograms stay comparable across deployments.
	nnLegHist *obs.Histogram
	// updateHist[kind] is the execution-time histogram of one update shape
	// (insert, delete, move); updates mirrors Stats.Updates.
	updateHist [3]*obs.Histogram
	updates    *obs.Counter
	// cacheSavedJ is the modeled server-compute Joules the result cache has
	// saved: each hit is priced as one mean miss execution.
	cacheSavedJ *obs.Gauge
}

var kindNames = [3]string{"point", "range", "nn"}

func newServeMetrics(h *obs.Hub) serveMetrics {
	var m serveMetrics
	if h == nil {
		return m
	}
	for k, kindName := range kindNames {
		for mo, mode := range [3]proto.Mode{proto.ModeData, proto.ModeIDs, proto.ModeFilter} {
			m.execHist[k][mo] = h.Reg.Histogram(
				obs.Name("serve_exec_seconds", "kind", kindName, "mode", mode.String()))
		}
	}
	m.shipHist = h.Reg.Histogram("serve_shipment_seconds")
	m.admitHist = h.Reg.Histogram("serve_admit_wait_seconds")
	m.writeHist = h.Reg.Histogram("serve_write_seconds")
	m.rxBytes = h.Reg.Counter("serve_rx_bytes_total")
	m.txBytes = h.Reg.Counter("serve_tx_bytes_total")
	m.conns = h.Reg.Counter("serve_conns_total")
	m.served = h.Reg.Counter("serve_served_total")
	m.overloads = h.Reg.Counter("serve_overloads_total")
	m.deadlines = h.Reg.Counter("serve_deadlines_total")
	m.errors = h.Reg.Counter("serve_errors_total")
	m.shipments = h.Reg.Counter("serve_shipments_total")
	m.batches = h.Reg.Counter("serve_batches_total")
	m.batchQueries = h.Reg.Counter("serve_batch_queries_total")
	m.writes = h.Reg.Counter("serve_writes_total")
	m.writeFrames = h.Reg.Counter("serve_write_frames_total")
	m.nnLegHist = h.Reg.Histogram("serve_nnleg_seconds")
	for k, kindName := range updateKindNames {
		m.updateHist[k] = h.Reg.Histogram(obs.Name("serve_update_seconds", "kind", kindName))
	}
	m.updates = h.Reg.Counter("serve_updates_total")
	m.cacheSavedJ = h.Reg.Gauge("qcache_saved_joules")
	return m
}

var updateKindNames = [3]string{"insert", "delete", "move"}

// New builds a Server.
func New(cfg Config) (*Server, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	s := &Server{
		cfg:     cfg,
		start:   time.Now(),
		sem:     make(chan struct{}, cfg.MaxInFlight),
		conns:   make(map[net.Conn]struct{}),
		metrics: newServeMetrics(cfg.Obs),
	}
	s.dx, _ = cfg.Pool.(DeadlineExecutor)
	s.bnn, _ = cfg.Pool.(BoundedNN)
	s.upd, _ = cfg.Pool.(Updatable)
	s.sr, _ = cfg.Pool.(SegResolver)
	s.rr, _ = cfg.Pool.(RangeReporter)
	if lrs, ok := cfg.Pool.(LiveRangeSet); ok && lrs.LiveRangesEnabled() {
		if s.rr == nil {
			return nil, fmt.Errorf("serve: pool %T reports live ranges without RangeReporter", cfg.Pool)
		}
		s.lrs = lrs
	}
	s.hr, _ = cfg.Pool.(HeatReporter)
	s.bx, _ = cfg.Pool.(BatchExecutor)
	s.em = obs.DefaultEnergyModel()
	if cfg.Obs != nil {
		s.em = cfg.Obs.Energy
	}
	// Resolve the validity view. A pool that is its own qcache.Source (a
	// mutable pool's shard versions, or the router's cluster-wide per-range
	// version vector) supplies it directly; any other local pool gets a
	// single frozen pseudo-shard. A distributed pool without a Source has
	// no view at all — it can neither cache nor stamp epoch hints.
	if src, ok := cfg.Pool.(qcache.Source); ok {
		s.qsrc = src
	} else if s.dx == nil {
		rect := geom.Rect{
			Min: geom.Point{X: math.Inf(-1), Y: math.Inf(-1)},
			Max: geom.Point{X: math.Inf(1), Y: math.Inf(1)},
		}
		if b, ok := cfg.Pool.(interface{ Bounds() geom.Rect }); ok {
			if bb := b.Bounds(); !bb.IsEmpty() {
				rect = bb
			}
		}
		s.qsrc = qcache.Static{Rect: rect}
	}
	if cfg.Cache != nil {
		if s.qsrc == nil {
			return nil, fmt.Errorf(
				"serve: Config.Cache set but pool %T has no validity view (qcache.Source) to invalidate against", cfg.Pool)
		}
		s.qc = cfg.Cache
	}
	summary, err := buildSummary(&cfg)
	if err != nil {
		return nil, err
	}
	s.summary = summary
	s.scratch.New = func() any { return &reqScratch{} }
	return s, nil
}

// buildSummary precomputes the MsgSummaryReq reply: the Hilbert key ranges
// this server holds, its item count, and its data bounds. A server without
// explicit ranges (a monolithic deployment) reports one synthetic range
// covering the whole key space, so a router can register it like any
// partitioned backend.
func buildSummary(cfg *Config) (proto.SummaryMsg, error) {
	var items uint64
	if l, ok := cfg.Pool.(interface{ Len() int }); ok {
		items = uint64(l.Len())
	}
	bounds := geom.EmptyRect()
	if b, ok := cfg.Pool.(interface{ Bounds() geom.Rect }); ok {
		bounds = b.Bounds()
	}
	ranges := cfg.Ranges
	numRanges := uint32(cfg.NumRanges)
	if len(ranges) == 0 && cfg.NumRanges <= 0 {
		numRanges = 1
		rangeItems := uint32(math.MaxUint32)
		if items < math.MaxUint32 {
			rangeItems = uint32(items)
		}
		ranges = []proto.RangeInfo{{Index: 0, Items: rangeItems, Lo: 0, Hi: math.MaxUint64, MBR: bounds}}
	}
	m := proto.SummaryMsg{NumRanges: numRanges, Items: items, Bounds: bounds, Ranges: ranges}
	if err := m.Validate(); err != nil {
		return proto.SummaryMsg{}, fmt.Errorf("serve: invalid range summary: %w", err)
	}
	return m, nil
}

// summaryReply builds one MsgSummary response. For a frozen pool it is a
// shallow copy of the precomputed summary with the request id filled in (the
// Ranges slice shared read-only across replies). When the pool reports live
// range state, the reply is rebuilt from it — per-range version counters,
// current MBRs, and live item counts — so a router's refresh poll observes
// writes instead of the registration-time snapshot. The rebuild allocates a
// fresh Ranges slice per request, which is fine: summaries flow only at
// registration and on the refresh poll, a few per second at most.
func (s *Server) summaryReply(id uint32) *proto.SummaryMsg {
	m := s.summary
	m.ID = id
	if s.rr == nil {
		return &m
	}
	if s.lrs != nil {
		// Adaptive pool: the cut table itself moves (splits and merges), so
		// the whole range table — count included — rebuilds from the pool's
		// current topology. A router polling summaries picks the new cuts up
		// within one refresh interval.
		ranges, num := s.lrs.SummaryRanges(make([]proto.RangeInfo, 0, len(s.summary.Ranges)+2))
		n := s.rr.Len()
		m.NumRanges = uint32(num)
		m.Items = uint64(n)
		m.Bounds = s.rr.Bounds()
		m.Ranges = ranges
		return &m
	}
	ranges := make([]proto.RangeInfo, len(s.summary.Ranges))
	copy(ranges, s.summary.Ranges)
	if len(s.cfg.Ranges) == 0 {
		// Monolithic deployment: one synthetic range covering the whole key
		// space. Its version is the sum of the shard versions — monotone,
		// and it advances exactly when any shard's visible state changes.
		var ver uint64
		var heat float64
		for i := 0; i < s.rr.NumShards(); i++ {
			ver += s.rr.Version(i)
			if s.hr != nil {
				heat += s.hr.ShardHeat(i)
			}
		}
		n := s.rr.Len()
		b := s.rr.Bounds()
		ranges[0].Items = clampItems(n)
		ranges[0].Version = ver
		ranges[0].MBR = b
		ranges[0].Heat = heat
		m.Items = uint64(n)
		m.Bounds = b
	} else {
		bounds := geom.EmptyRect()
		var total uint64
		for i := range ranges {
			li := s.rr.LocalShard(int(ranges[i].Index))
			if li < 0 {
				continue
			}
			n := s.rr.ShardItems(li)
			mbr := s.rr.ShardBounds(li)
			ranges[i].Items = clampItems(n)
			ranges[i].Version = s.rr.Version(li)
			ranges[i].MBR = mbr
			if s.hr != nil {
				ranges[i].Heat = s.hr.ShardHeat(li)
			}
			total += uint64(n)
			bounds = bounds.Union(mbr)
		}
		m.Items = total
		m.Bounds = bounds
	}
	m.Ranges = ranges
	return &m
}

// clampItems clamps a live item count into the wire's uint32 field.
func clampItems(n int) uint32 {
	if n < 0 {
		return 0
	}
	if n > math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(n)
}

// Stats returns a snapshot of the server counters.
func (s *Server) Stats() Stats {
	return Stats{
		Conns:        s.nConns.Load(),
		Served:       s.nServed.Load(),
		Overloads:    s.nOverload.Load(),
		Deadlines:    s.nDeadline.Load(),
		Errors:       s.nErrors.Load(),
		Shipments:    s.nShipments.Load(),
		Batches:      s.nBatches.Load(),
		BatchQueries: s.nBatchQueries.Load(),
		Updates:      s.nUpdates.Load(),
	}
}

// Serve accepts connections on lis until Shutdown or Close. It returns nil
// after a clean shutdown.
func (s *Server) Serve(lis net.Listener) error {
	s.mu.Lock()
	if s.shutdown {
		s.mu.Unlock()
		lis.Close()
		return fmt.Errorf("serve: server is shut down")
	}
	if s.lis != nil {
		s.mu.Unlock()
		return fmt.Errorf("serve: Serve called twice")
	}
	s.lis = lis
	s.mu.Unlock()

	for {
		nc, err := lis.Accept()
		if err != nil {
			s.mu.Lock()
			closing := s.shutdown
			s.mu.Unlock()
			if closing {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.shutdown {
			s.mu.Unlock()
			nc.Close()
			return nil
		}
		s.conns[nc] = struct{}{}
		s.connWG.Add(1)
		s.mu.Unlock()
		s.nConns.Add(1)
		s.metrics.conns.Inc()
		go s.serveConn(nc)
	}
}

// ListenAndServe listens on addr and serves until shutdown.
func (s *Server) ListenAndServe(addr string) error {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(lis)
}

// Shutdown gracefully stops the server: no new connections or requests are
// accepted, in-flight requests drain and their responses are written, then
// connections close. It returns when everything has drained or timeout (≤ 0
// means wait forever) has passed.
func (s *Server) Shutdown(timeout time.Duration) error {
	s.mu.Lock()
	s.shutdown = true
	lis := s.lis
	// Poke every reader out of its blocking Read so it notices shutdown.
	for nc := range s.conns {
		nc.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()
	if lis != nil {
		lis.Close()
	}

	done := make(chan struct{})
	go func() {
		s.connWG.Wait()
		close(done)
	}()
	if timeout <= 0 {
		<-done
		return nil
	}
	select {
	case <-done:
		return nil
	case <-time.After(timeout):
		s.closeAllConns()
		return fmt.Errorf("serve: shutdown timed out after %v", timeout)
	}
}

// Close stops the server immediately, dropping in-flight work.
func (s *Server) Close() error {
	s.mu.Lock()
	s.shutdown = true
	lis := s.lis
	s.mu.Unlock()
	if lis != nil {
		lis.Close()
	}
	s.closeAllConns()
	s.connWG.Wait()
	return nil
}

func (s *Server) closeAllConns() {
	s.mu.Lock()
	for nc := range s.conns {
		nc.Close()
	}
	s.mu.Unlock()
}

func (s *Server) inShutdown() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.shutdown
}

// conn is the per-connection state.
type conn struct {
	srv *Server
	nc  net.Conn
	// wmu guards the write state below. Responses are encoded into wbuf
	// under wmu and flushed by whichever goroutine finds no flusher active —
	// so concurrent pipelined responses coalesce into one syscall.
	wmu     sync.Mutex
	wbuf    []byte // frames appended, awaiting flush
	wspare  []byte // retained buffer of the last flush, reused for wbuf
	writing bool   // a flusher is draining wbuf
	wclosed bool   // a write failed; the connection is dead
	// pending counts this connection's in-flight request goroutines.
	pending sync.WaitGroup
}

// readPollInterval is how often a blocked reader rechecks for shutdown.
const readPollInterval = time.Second

func (s *Server) serveConn(nc net.Conn) {
	c := &conn{srv: s, nc: nc}
	defer func() {
		c.pending.Wait() // flush in-flight responses before closing
		nc.Close()
		s.mu.Lock()
		delete(s.conns, nc)
		s.mu.Unlock()
		s.connWG.Done()
	}()

	for {
		// The deadline is armed before the shutdown check: if Shutdown's
		// poke (SetReadDeadline(now)) lands between the check and a
		// later arm, this ordering guarantees the poke wins and the read
		// returns immediately — otherwise an idle connection could stall
		// the drain for a full readPollInterval. A SetReadDeadline error
		// means the socket is already torn down: drop the connection
		// rather than risk a read that can never be interrupted.
		if err := nc.SetReadDeadline(time.Now().Add(readPollInterval)); err != nil {
			return
		}
		if s.inShutdown() {
			return
		}
		msg, n, err := proto.ReadMessage(nc)
		if err != nil {
			var nerr net.Error
			if errors.As(err, &nerr) && nerr.Timeout() {
				continue // poll tick: recheck shutdown
			}
			return // EOF, peer reset, or a protocol error: drop the conn
		}
		arrived := time.Now()
		s.metrics.rxBytes.Add(uint64(n))

		switch m := msg.(type) {
		case *proto.PingMsg:
			// Pings bypass admission: they measure the link, not the server.
			// write serializes the echo before returning, so releasing the
			// pooled message afterwards is safe.
			c.write(m)
			proto.ReleaseMessage(m)
		case *proto.StatsReqMsg:
			// Snapshots bypass admission too: observability must stay
			// available when the server is saturated.
			c.write(s.statsSnapshot(m.ID))
		case *proto.SummaryReqMsg:
			// Summaries bypass admission like stats: a router must be able
			// to (re-)register against a saturated backend.
			c.write(s.summaryReply(m.ID))
		case *proto.QueryMsg:
			c.dispatch(m, arrived, m.TimeoutMicros)
		case *proto.BatchQueryMsg:
			c.dispatch(m, arrived, m.TimeoutMicros)
		case *proto.NNQueryMsg:
			c.dispatch(m, arrived, m.TimeoutMicros)
		case *proto.ShipmentReqMsg:
			c.dispatch(m, arrived, m.TimeoutMicros)
		case *proto.InsertMsg:
			c.dispatch(m, arrived, m.TimeoutMicros)
		case *proto.DeleteMsg:
			c.dispatch(m, arrived, m.TimeoutMicros)
		case *proto.MoveMsg:
			c.dispatch(m, arrived, m.TimeoutMicros)
		default:
			s.nErrors.Add(1)
			s.metrics.errors.Inc()
			c.write(&proto.ErrorMsg{ID: msg.RequestID(), Code: proto.CodeBadRequest,
				Text: fmt.Sprintf("unexpected %v message", msg.Type())})
			proto.ReleaseMessage(msg)
		}
	}
}

// dispatch admits req and runs it in its own goroutine — the pipelining
// point: the reader immediately returns to the next frame.
func (c *conn) dispatch(req proto.Message, arrived time.Time, timeoutMicros uint32) {
	s := c.srv
	timeout := s.cfg.RequestTimeout
	if t := time.Duration(timeoutMicros) * time.Microsecond; t > 0 && t < timeout {
		timeout = t
	}
	deadline := arrived.Add(timeout)

	// Admission control. Blocking here stalls this connection's reader —
	// deliberate backpressure — but never past AdmitTimeout.
	select {
	case s.sem <- struct{}{}:
	default:
		admitWait := s.cfg.AdmitTimeout
		if rest := time.Until(deadline); rest < admitWait {
			admitWait = rest
		}
		timer := time.NewTimer(admitWait)
		select {
		case s.sem <- struct{}{}:
			timer.Stop()
		case <-timer.C:
			s.nOverload.Add(1)
			s.metrics.overloads.Inc()
			c.write(&proto.ErrorMsg{ID: req.RequestID(), Code: proto.CodeOverload,
				Text: "admission queue full"})
			proto.ReleaseMessage(req)
			return
		}
	}
	admitted := time.Now()
	s.metrics.admitHist.Observe(admitted.Sub(arrived).Seconds())

	c.pending.Add(1)
	go func() {
		defer func() {
			<-s.sem
			c.pending.Done()
		}()
		var sp *obs.Span
		if h := s.cfg.Obs; h != nil {
			sp = h.Trace.Start(reqKind(req))
		}
		sp.Lap(obs.StageParse, admitted.Sub(arrived).Seconds())
		sp.Begin(obs.StageIndexWalk)
		sc := s.getScratch()
		execStart := time.Now()
		resp, panicked := s.safeExecute(req, sc, deadline)
		execSec := time.Since(execStart).Seconds()
		s.observeExec(req, execSec)
		if time.Now().After(deadline) {
			s.nDeadline.Add(1)
			s.metrics.deadlines.Inc()
			resp = &proto.ErrorMsg{ID: req.RequestID(), Code: proto.CodeDeadline,
				Text: fmt.Sprintf("request exceeded %v deadline", timeout)}
		}
		if _, ok := resp.(*proto.ErrorMsg); ok {
			if resp.(*proto.ErrorMsg).Code != proto.CodeDeadline {
				s.nErrors.Add(1)
				s.metrics.errors.Inc()
			}
			sp.SetErr()
		} else {
			s.nServed.Add(1)
			s.metrics.served.Inc()
		}
		sp.Begin(obs.StageSerialize)
		writeStart := time.Now()
		// write serializes resp before returning, so the scratch the
		// response aliases can be pooled again immediately after.
		c.write(resp)
		s.metrics.writeHist.Observe(time.Since(writeStart).Seconds())
		if !panicked {
			// A panicking execution may have left the scratch in an
			// inconsistent state (e.g. a half-built pooled slice); drop it
			// rather than recycle it.
			s.putScratch(sc)
		}
		proto.ReleaseMessage(req)
		sp.Finish()
	}()
}

// reqKind labels a request for spans and histograms.
func reqKind(req proto.Message) string {
	switch m := req.(type) {
	case *proto.QueryMsg:
		if int(m.Kind) < len(kindNames) {
			return kindNames[m.Kind]
		}
	case *proto.BatchQueryMsg:
		return "batch"
	case *proto.NNQueryMsg:
		return "nn-leg"
	case *proto.ShipmentReqMsg:
		return "shipment"
	case *proto.InsertMsg:
		return "insert"
	case *proto.DeleteMsg:
		return "delete"
	case *proto.MoveMsg:
		return "move"
	}
	return "other"
}

// observeExec records one execution time into the matching histogram. Batch
// requests are recorded per sub-query inside executeBatch instead, so the
// per-kind histograms stay comparable between batched and single traffic.
func (s *Server) observeExec(req proto.Message, sec float64) {
	switch m := req.(type) {
	case *proto.QueryMsg:
		s.observeExecQuery(m, sec)
	case *proto.NNQueryMsg:
		s.metrics.nnLegHist.Observe(sec)
	case *proto.ShipmentReqMsg:
		s.metrics.shipHist.Observe(sec)
	case *proto.InsertMsg:
		s.metrics.updateHist[0].Observe(sec)
	case *proto.DeleteMsg:
		s.metrics.updateHist[1].Observe(sec)
	case *proto.MoveMsg:
		s.metrics.updateHist[2].Observe(sec)
	}
}

func (s *Server) observeExecQuery(q *proto.QueryMsg, sec float64) {
	if int(q.Kind) < 3 && int(q.Mode) < 3 {
		s.metrics.execHist[q.Kind][q.Mode].Observe(sec)
	}
}

// maxRetainedWriteBuf caps the flush buffer kept per connection; a burst
// that grew it past this is released back to the heap rather than pinned.
const maxRetainedWriteBuf = 1 << 20

// write enqueues one response frame and flushes the connection's write
// buffer. The frame is serialized under wmu — after write returns, m (and
// any scratch it aliases) may be reused. If another goroutine is already
// flushing, the frame is left for it to pick up: pipelined responses that
// land while a write syscall is in progress all go out in the next write,
// which is how N batched or pipelined responses cost O(1) syscalls. Write
// errors drop the connection (the reader will notice on its next poll).
func (c *conn) write(m proto.Message) {
	s := c.srv
	c.wmu.Lock()
	if c.wclosed {
		c.wmu.Unlock()
		return
	}
	var err error
	if c.wbuf, err = proto.AppendFrame(c.wbuf, m); err != nil {
		// Server-built replies always validate; this is defensive.
		c.wmu.Unlock()
		s.nErrors.Add(1)
		s.metrics.errors.Inc()
		return
	}
	s.metrics.writeFrames.Inc()
	if c.writing {
		c.wmu.Unlock()
		return
	}
	c.writing = true
	for len(c.wbuf) > 0 && !c.wclosed {
		buf := c.wbuf
		c.wbuf = c.wspare[:0]
		c.wspare = nil
		c.wmu.Unlock()

		// An unarmed write deadline would let a stalled peer pin this
		// writer forever; if arming fails the socket is already broken, so
		// skip the write and tear the connection down below.
		werr := c.nc.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
		if werr == nil {
			var n int
			n, werr = c.nc.Write(buf)
			s.metrics.txBytes.Add(uint64(n))
			s.metrics.writes.Inc()
		}

		c.wmu.Lock()
		if cap(buf) <= maxRetainedWriteBuf {
			c.wspare = buf[:0]
		}
		if werr != nil {
			c.wclosed = true
			c.nc.Close()
		}
	}
	c.writing = false
	c.wmu.Unlock()
}

// statsSnapshot builds the in-protocol stats reply. With obs enabled the
// registry snapshot already mirrors the core counters; with obs disabled the
// core counters are synthesized from the Server's atomics, so the snapshot
// is never empty.
func (s *Server) statsSnapshot(id uint32) *proto.StatsMsg {
	uptime := uint64(time.Since(s.start).Microseconds())
	if h := s.cfg.Obs; h != nil {
		return obs.ToStatsMsg(id, uptime, h.Reg.Snapshot())
	}
	st := s.Stats()
	counters := []obs.CounterValue{
		{Name: "serve_conns_total", Value: st.Conns},
		{Name: "serve_deadlines_total", Value: st.Deadlines},
		{Name: "serve_errors_total", Value: st.Errors},
		{Name: "serve_overloads_total", Value: st.Overloads},
		{Name: "serve_served_total", Value: st.Served},
		{Name: "serve_shipments_total", Value: st.Shipments},
		{Name: "serve_batches_total", Value: st.Batches},
		{Name: "serve_batch_queries_total", Value: st.BatchQueries},
		{Name: "serve_updates_total", Value: st.Updates},
	}
	if s.qc != nil {
		// With obs enabled the registry snapshot above already carries the
		// qcache_* series; synthesize them here so an obs-less server still
		// reports its cache to mqtop.
		cs := s.qc.Stats()
		counters = append(counters,
			obs.CounterValue{Name: "qcache_hits_total", Value: cs.Hits},
			obs.CounterValue{Name: "qcache_misses_total", Value: cs.Misses},
			obs.CounterValue{Name: "qcache_invalidations_total", Value: cs.Invalidations},
			obs.CounterValue{Name: "qcache_stores_total", Value: cs.Stores},
			obs.CounterValue{Name: "qcache_bypass_total", Value: cs.Bypasses},
		)
	}
	return obs.ToStatsMsg(id, uptime, obs.Snapshot{Counters: counters})
}

// safeExecute runs execute with panic containment: a panicking query
// answers CodeInternal instead of crashing the whole server, and reports
// panicked=true so the caller drops (rather than recycles) the scratch the
// panicking execution may have corrupted.
func (s *Server) safeExecute(req proto.Message, sc *reqScratch, deadline time.Time) (resp proto.Message, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			panicked = true
			resp = &proto.ErrorMsg{ID: req.RequestID(), Code: proto.CodeInternal,
				Text: truncText(fmt.Sprintf("panic in query execution: %v", r))}
		}
	}()
	return s.execute(req, sc, deadline), false
}

// truncText clamps s to the wire protocol's error-text limit.
func truncText(s string) string {
	if len(s) > proto.MaxErrorText {
		return s[:proto.MaxErrorText]
	}
	return s
}

// errToCode maps an executor error onto a wire code: errors that carry one
// (router errors) keep it, anything else is internal.
func errToCode(err error) (proto.ErrCode, string) {
	var ec interface{ ErrCode() proto.ErrCode }
	if errors.As(err, &ec) {
		return ec.ErrCode(), truncText(err.Error())
	}
	return proto.CodeInternal, truncText(err.Error())
}

// execute runs one admitted request and builds its response message. The
// response may alias sc's buffers; it must be serialized (conn.write does
// this before returning) before sc is reused.
func (s *Server) execute(req proto.Message, sc *reqScratch, deadline time.Time) proto.Message {
	if s.cfg.testDelay > 0 {
		time.Sleep(s.cfg.testDelay)
	}
	switch m := req.(type) {
	case *proto.QueryMsg:
		return s.executeQuery(m, sc, deadline)
	case *proto.BatchQueryMsg:
		return s.executeBatch(m, sc, deadline)
	case *proto.NNQueryMsg:
		return s.executeNN(m, sc, deadline)
	case *proto.ShipmentReqMsg:
		return s.executeShipment(m)
	case *proto.InsertMsg, *proto.DeleteMsg, *proto.MoveMsg:
		return s.executeUpdate(req, sc)
	}
	return &proto.ErrorMsg{ID: req.RequestID(), Code: proto.CodeInternal, Text: "unroutable message"}
}

// executeUpdate applies one write through the Updatable surface and builds
// its epoch-carrying ack into the scratch.
func (s *Server) executeUpdate(req proto.Message, sc *reqScratch) proto.Message {
	if s.upd == nil {
		return &proto.ErrorMsg{ID: req.RequestID(), Code: proto.CodeUnsupported,
			Text: "this server's pool is not updatable"}
	}
	var (
		reqID, objID   uint32
		epoch          uint64
		existed, owned bool
		err            error
	)
	switch m := req.(type) {
	case *proto.InsertMsg:
		reqID, objID = m.ID, m.ObjID
		epoch, existed, owned, err = s.upd.ApplyInsert(m.ObjID, m.Seg)
	case *proto.DeleteMsg:
		reqID, objID = m.ID, m.ObjID
		epoch, existed, owned, err = s.upd.ApplyDelete(m.ObjID)
	case *proto.MoveMsg:
		reqID, objID = m.ID, m.ObjID
		epoch, existed, owned, err = s.upd.ApplyMove(m.ObjID, m.Seg)
	}
	if err != nil {
		code, text := errToCode(err)
		return &proto.ErrorMsg{ID: reqID, Code: code, Text: text}
	}
	s.nUpdates.Add(1)
	s.metrics.updates.Inc()
	sc.ackMsg = proto.UpdateAckMsg{ID: reqID, ObjID: objID, Epoch: epoch, Existed: existed, Owned: owned}
	return &sc.ackMsg
}

// runQuery answers one query, appending the matching ids to dst. On error
// it returns dst untouched plus the error code and text. This is the single
// traversal entry both the single-query and batch paths share. Point, range
// and filter answers are sets and come back sorted, which the id-list
// encoding turns into small deltas; k-NN answers keep their distance order.
func (s *Server) runQuery(q *proto.QueryMsg, sc *reqScratch, dst []uint32, deadline time.Time) ([]uint32, proto.ErrCode, string) {
	n := len(dst)
	ids, code, text := s.traverse(q, sc, dst, deadline)
	if code == 0 && q.Kind != proto.KindNN {
		sc.sortIDs(ids[n:])
	}
	return ids, code, text
}

// radixMinIDs is the answer size from which sortIDs radix-sorts. Below it
// pdqsort is as fast; above it pdqsort dominates the query: on PA a 12 km
// window's ~9.6k ids took 690 µs to sort against 290 µs to find (2-CPU
// Xeon VM), the radix sort about 0.1 ms.
const radixMinIDs = 128

// sortIDs sorts ids ascending: an LSD radix sort in the fewest passes of at
// most 11 bits that cover the largest id, ping-ponging through sc.sortBuf.
func (sc *reqScratch) sortIDs(ids []uint32) {
	if len(ids) < radixMinIDs {
		slices.Sort(ids)
		return
	}
	width := bits.Len32(slices.Max(ids))
	passes := (width + 10) / 11
	if passes == 0 {
		return // all zero
	}
	digit := (width + passes - 1) / passes
	mask := uint32(1)<<digit - 1
	sc.sortBuf = slices.Grow(sc.sortBuf[:0], len(ids))
	src, dst := ids, sc.sortBuf[:len(ids)]
	var at [1 << 11]int32
	for shift := 0; shift < width; shift += digit {
		counts := at[:mask+1]
		clear(counts)
		for _, id := range src {
			counts[id>>shift&mask]++
		}
		sum := int32(0)
		for i, c := range counts {
			counts[i], sum = sum, sum+c
		}
		for _, id := range src {
			d := id >> shift & mask
			dst[counts[d]] = id
			counts[d]++
		}
		src, dst = dst, src
	}
	if passes%2 == 1 {
		copy(ids, src)
	}
}

// traverse runs one query on the pool in executor order. When the pool is a
// DeadlineExecutor the request deadline is threaded into the traversal so a
// fanned-out query caps its slowest leg.
func (s *Server) traverse(q *proto.QueryMsg, sc *reqScratch, dst []uint32, deadline time.Time) ([]uint32, proto.ErrCode, string) {
	eps := q.Eps
	if eps <= 0 {
		eps = s.cfg.PointEps
	}
	if s.dx != nil {
		return s.runQueryUntil(q, sc, dst, eps, deadline)
	}
	pool := s.cfg.Pool
	switch q.Kind {
	case proto.KindPoint:
		if q.Mode == proto.ModeFilter {
			return pool.FilterPointAppend(dst, q.Point), 0, ""
		}
		return pool.PointAppend(dst, q.Point, eps), 0, ""
	case proto.KindRange:
		if q.Mode == proto.ModeFilter {
			return pool.FilterRangeAppend(dst, q.Window), 0, ""
		}
		return pool.RangeAppend(dst, q.Window), 0, ""
	case proto.KindNN:
		k := int(q.K)
		if k > s.cfg.MaxKNN {
			return dst, proto.CodeBadRequest, fmt.Sprintf("k=%d exceeds limit %d", k, s.cfg.MaxKNN)
		}
		if k > 1 {
			nbs, ok := pool.KNearestAppend(sc.nbs[:0], q.Point, k, &sc.psc)
			sc.nbs = nbs
			if !ok {
				return dst, proto.CodeUnsupported, "access method does not support k-NN"
			}
			for _, nb := range nbs {
				dst = append(dst, nb.ID)
			}
			return dst, 0, ""
		}
		if nn := pool.NearestWith(q.Point, &sc.psc); nn.OK {
			dst = append(dst, nn.ID)
		}
		return dst, 0, ""
	}
	return dst, proto.CodeBadRequest, "unknown query kind"
}

// runQueryUntil is runQuery over the DeadlineExecutor surface.
func (s *Server) runQueryUntil(q *proto.QueryMsg, sc *reqScratch, dst []uint32, eps float64, deadline time.Time) ([]uint32, proto.ErrCode, string) {
	var err error
	switch q.Kind {
	case proto.KindPoint:
		if q.Mode == proto.ModeFilter {
			dst, err = s.dx.FilterPointAppendUntil(dst, q.Point, deadline)
		} else {
			dst, err = s.dx.PointAppendUntil(dst, q.Point, eps, deadline)
		}
	case proto.KindRange:
		if q.Mode == proto.ModeFilter {
			dst, err = s.dx.FilterRangeAppendUntil(dst, q.Window, deadline)
		} else {
			dst, err = s.dx.RangeAppendUntil(dst, q.Window, deadline)
		}
	case proto.KindNN:
		k := int(q.K)
		if k > s.cfg.MaxKNN {
			return dst, proto.CodeBadRequest, fmt.Sprintf("k=%d exceeds limit %d", k, s.cfg.MaxKNN)
		}
		if k > 1 {
			var nbs []rtree.Neighbor
			nbs, err = s.dx.KNearestAppendUntil(sc.nbs[:0], q.Point, k, &sc.psc, deadline)
			sc.nbs = nbs
			if err == nil {
				for _, nb := range nbs {
					dst = append(dst, nb.ID)
				}
			}
		} else {
			var nn parallel.NearestResult
			nn, err = s.dx.NearestUntil(q.Point, &sc.psc, deadline)
			if err == nil && nn.OK {
				dst = append(dst, nn.ID)
			}
		}
	default:
		return dst, proto.CodeBadRequest, "unknown query kind"
	}
	if err != nil {
		code, text := errToCode(err)
		return dst, code, text
	}
	return dst, 0, ""
}

// executeNN answers one router NN leg (MsgNNQuery): a k-NN query carrying
// the router's running k-th-neighbor bound, answered with exact distances.
// Preference order: the bound-aware surface when the pool has one, the
// deadline surface when the pool is distributed (the bound is only a hint,
// dropping it never costs correctness), the plain unbounded path otherwise.
func (s *Server) executeNN(m *proto.NNQueryMsg, sc *reqScratch, deadline time.Time) proto.Message {
	k := int(m.K)
	if k <= 0 {
		k = 1
	}
	if k > s.cfg.MaxKNN {
		return &proto.ErrorMsg{ID: m.ID, Code: proto.CodeBadRequest,
			Text: fmt.Sprintf("k=%d exceeds limit %d", k, s.cfg.MaxKNN)}
	}
	bound := m.Bound
	if bound <= 0 {
		bound = math.Inf(1)
	}
	if s.qc != nil {
		if math.IsInf(bound, 1) {
			// Only unbounded legs are cacheable: the router's running bound
			// is not part of the key space, and a bounded answer is a
			// truncation no later query could safely refine from.
			ids, dists, code, text, handled := s.cachedNN(m.Point, k, sc, deadline)
			if handled {
				if code != 0 {
					return &proto.ErrorMsg{ID: m.ID, Code: code, Text: text}
				}
				out := sc.nbrMsg.Neighbors[:0]
				for i, id := range ids {
					out = append(out, proto.Neighbor{ID: id, Dist: dists[i]})
				}
				sc.nbrMsg = proto.NeighborsMsg{ID: m.ID, Neighbors: out}
				return &sc.nbrMsg
			}
		} else {
			s.qc.Bypass()
		}
	}
	var (
		nbs []rtree.Neighbor
		ok  = true
		err error
	)
	switch {
	case s.bnn != nil:
		nbs, ok = s.bnn.KNearestBoundedAppend(sc.nbs[:0], m.Point, k, bound, &sc.psc)
	case s.dx != nil:
		nbs, err = s.dx.KNearestAppendUntil(sc.nbs[:0], m.Point, k, &sc.psc, deadline)
	default:
		nbs, ok = s.cfg.Pool.KNearestAppend(sc.nbs[:0], m.Point, k, &sc.psc)
	}
	sc.nbs = nbs
	if err != nil {
		code, text := errToCode(err)
		return &proto.ErrorMsg{ID: m.ID, Code: code, Text: text}
	}
	if !ok {
		return &proto.ErrorMsg{ID: m.ID, Code: proto.CodeUnsupported,
			Text: "access method does not support k-NN"}
	}
	out := sc.nbrMsg.Neighbors[:0]
	for _, nb := range nbs {
		out = append(out, proto.Neighbor{ID: nb.ID, Dist: nb.Dist})
	}
	sc.nbrMsg = proto.NeighborsMsg{ID: m.ID, Neighbors: out}
	return &sc.nbrMsg
}

// segOf resolves one record's geometry: through the pool's SegResolver when
// it has one (live geometry, inserted ids included), else the base dataset.
func (s *Server) segOf(ds *dataset.Dataset, id uint32) geom.Segment {
	if s.sr != nil {
		return s.sr.SegOf(id)
	}
	return ds.Seg(id)
}

func (s *Server) executeQuery(q *proto.QueryMsg, sc *reqScratch, deadline time.Time) proto.Message {
	var (
		ids       []uint32
		segs      []geom.Segment // aligned with ids when fromCache
		fromCache bool
	)
	if s.qc != nil {
		cids, csegs, code, text, handled := s.runQueryCached(q, sc, deadline)
		if handled {
			if code != 0 {
				return &proto.ErrorMsg{ID: q.ID, Code: code, Text: text}
			}
			ids, segs, fromCache = cids, csegs, true
		}
	}
	if !fromCache {
		var code proto.ErrCode
		var text string
		ids, code, text = s.runQuery(q, sc, sc.ids[:0], deadline)
		sc.ids = ids
		if code != 0 {
			return &proto.ErrorMsg{ID: q.ID, Code: code, Text: text}
		}
	}
	if q.Mode == proto.ModeData {
		recs := sc.dataMsg.Records[:0]
		if fromCache {
			// The cached entry carries its geometry: no per-id SegOf (and no
			// pool-level owner-table lock) on the hit path.
			for i, id := range ids {
				recs = append(recs, proto.Record{ID: id, Seg: segs[i]})
			}
		} else {
			ds := s.cfg.Pool.Dataset()
			for _, id := range ids {
				recs = append(recs, proto.Record{ID: id, Seg: s.segOf(ds, id)})
			}
		}
		sc.dataMsg = proto.DataListMsg{ID: q.ID, Epoch: s.epochHint(), Records: recs}
		return &sc.dataMsg
	}
	sc.idMsg = proto.IDListMsg{ID: q.ID, Epoch: s.epochHint(), IDs: ids}
	return &sc.idMsg
}

// executeBatch answers every query of a batch into one reply message. Item
// slices are reused from the scratch's previous batch, so a warm batch of
// already-seen shape allocates nothing. Per-item failures (e.g. an over-limit
// k mid-batch) become per-item errors; the rest of the batch still answers.
func (s *Server) executeBatch(m *proto.BatchQueryMsg, sc *reqScratch, deadline time.Time) proto.Message {
	if s.bx != nil && s.qc == nil {
		// Batch-aware pool (the router): hand the whole batch over so it
		// issues one leg per owning backend instead of one fan-out per
		// sub-query. With the result cache on, the per-item loop below is
		// kept instead — the cache probes and fills per sub-query, and a
		// hot batch answering mostly from cache beats a grouped fan-out.
		return s.executeBatchGrouped(m, sc, deadline)
	}
	items := sc.batch.Items[:0]
	for i := range m.Queries {
		if i < cap(items) {
			items = items[:i+1]
		} else {
			items = append(items, proto.BatchItem{})
		}
		it := &items[i]
		it.IDs, it.Recs, it.Err, it.Text = it.IDs[:0], it.Recs[:0], 0, ""

		q := &m.Queries[i]
		start := time.Now()
		handled := false
		if s.qc != nil {
			var cids []uint32
			var csegs []geom.Segment
			var code proto.ErrCode
			var text string
			if cids, csegs, code, text, handled = s.runQueryCached(q, sc, deadline); handled {
				switch {
				case code != 0:
					it.Err, it.Text = code, text
				case q.Mode == proto.ModeData:
					for j, id := range cids {
						it.Recs = append(it.Recs, proto.Record{ID: id, Seg: csegs[j]})
					}
				default:
					it.IDs = append(it.IDs, cids...)
				}
			}
		}
		if !handled {
			if q.Mode == proto.ModeData {
				ids, code, text := s.runQuery(q, sc, sc.ids[:0], deadline)
				sc.ids = ids
				if code != 0 {
					it.Err, it.Text = code, text
				} else {
					ds := s.cfg.Pool.Dataset()
					for _, id := range ids {
						it.Recs = append(it.Recs, proto.Record{ID: id, Seg: s.segOf(ds, id)})
					}
				}
			} else {
				ids, code, text := s.runQuery(q, sc, it.IDs, deadline)
				if code != 0 {
					it.Err, it.Text = code, text
				} else {
					it.IDs = ids
				}
			}
		}
		s.observeExecQuery(q, time.Since(start).Seconds())
	}
	sc.batch.ID = m.ID
	sc.batch.Epoch = s.epochHint()
	sc.batch.Items = items
	s.nBatches.Add(1)
	s.nBatchQueries.Add(uint64(len(m.Queries)))
	s.metrics.batches.Inc()
	s.metrics.batchQueries.Add(uint64(len(m.Queries)))
	return &sc.batch
}

// executeBatchGrouped is the locality-aware batch path: the pool's
// BatchExecutor answers every sub-query in id space (grouping them by owning
// backend under the hood), then data-mode items materialize their records
// here. Per-item k limits are enforced before the handoff; pre-set Err slots
// are the executor's contract to skip.
func (s *Server) executeBatchGrouped(m *proto.BatchQueryMsg, sc *reqScratch, deadline time.Time) proto.Message {
	items := sc.batch.Items[:0]
	for i := range m.Queries {
		if i < cap(items) {
			items = items[:i+1]
		} else {
			items = append(items, proto.BatchItem{})
		}
		it := &items[i]
		it.IDs, it.Recs, it.Err, it.Text = it.IDs[:0], it.Recs[:0], 0, ""
		if q := &m.Queries[i]; q.Kind == proto.KindNN && int(q.K) > s.cfg.MaxKNN {
			it.Err = proto.CodeBadRequest
			it.Text = fmt.Sprintf("k=%d exceeds limit %d", q.K, s.cfg.MaxKNN)
		}
	}
	start := time.Now()
	s.bx.RunQueryBatch(m.Queries, items, deadline)
	var per float64
	if len(m.Queries) > 0 {
		per = time.Since(start).Seconds() / float64(len(m.Queries))
	}
	ds := s.cfg.Pool.Dataset()
	for i := range m.Queries {
		q := &m.Queries[i]
		it := &items[i]
		if it.Err == 0 && q.Mode == proto.ModeData {
			for _, id := range it.IDs {
				it.Recs = append(it.Recs, proto.Record{ID: id, Seg: s.segOf(ds, id)})
			}
			it.IDs = it.IDs[:0]
		}
		s.observeExecQuery(q, per)
	}
	sc.batch.ID = m.ID
	sc.batch.Epoch = s.epochHint()
	sc.batch.Items = items
	s.nBatches.Add(1)
	s.nBatchQueries.Add(uint64(len(m.Queries)))
	s.metrics.batches.Inc()
	s.metrics.batchQueries.Add(uint64(len(m.Queries)))
	return &sc.batch
}

func (s *Server) executeShipment(m *proto.ShipmentReqMsg) proto.Message {
	if s.cfg.Master == nil {
		return &proto.ErrorMsg{ID: m.ID, Code: proto.CodeUnsupported,
			Text: "server has no master index for shipments"}
	}
	if int(m.BudgetBytes) > s.cfg.MaxShipmentBudget {
		return &proto.ErrorMsg{ID: m.ID, Code: proto.CodeBadRequest,
			Text: fmt.Sprintf("budget %d exceeds limit %d", m.BudgetBytes, s.cfg.MaxShipmentBudget)}
	}
	window := m.Window
	if window.IsEmpty() {
		// An empty window centers the shipment on the dataset.
		c := s.cfg.Master.Bounds().Center()
		window = geom.Rect{Min: c, Max: c}
	}
	ship, err := s.cfg.Master.ExtractSubset(window, rtree.Budget{
		Bytes:       int(m.BudgetBytes),
		RecordBytes: int(m.RecordBytes),
	}, ops.Null{})
	if err != nil {
		return &proto.ErrorMsg{ID: m.ID, Code: proto.CodeBadRequest, Text: err.Error()}
	}
	ds := s.cfg.Pool.Dataset()
	recs := make([]proto.Record, len(ship.Items))
	for i, it := range ship.Items {
		recs[i] = proto.Record{ID: it.ID, Seg: ds.Seg(it.ID)}
	}
	s.nShipments.Add(1)
	s.metrics.shipments.Inc()
	// A shipment is cut from the master tree — the frozen seed state. It may
	// claim currency (carry a non-zero epoch hint the client's semantic cache
	// can validate against) only while the live index has never been written:
	// after the first write the master no longer reflects the live index.
	var epoch uint64
	if s.qsrc != nil && qcache.Unwritten(s.qsrc) {
		epoch = qcache.HintOf(s.qsrc)
	}
	return &proto.ShipmentMsg{ID: m.ID, Epoch: epoch, Coverage: ship.Coverage, Records: recs}
}
