// planner.go is the live partitioning decision: the §4.1 analytic advisor
// (core.AnalyticInputs) driven by *measured* link conditions instead of
// simulated ones, choosing per query between executing fully at the client
// against a shipped sub-index and offloading to the server — the paper's
// Table 1 schemes as real execution plans, the way NeuPart-style systems
// consult an analytical model at request time.
package client

import (
	"fmt"
	"math"
	"time"

	"mobispatial/internal/core"
	"mobispatial/internal/cpu"
	"mobispatial/internal/energy"
	"mobispatial/internal/geom"
	"mobispatial/internal/nic"
	"mobispatial/internal/obs"
	"mobispatial/internal/proto"
)

// Plan is a query execution plan.
type Plan uint8

// The plans, from most client-side to most server-side.
const (
	// PlanLocal answers fully at the client from the shipment (Table 1
	// fully-client).
	PlanLocal Plan = iota
	// PlanServerIDs offloads execution and receives ids only, which the
	// client materializes from its shipped records — the hybrid plan:
	// Table 1 fully-server with the data present at the client (§6.1.1).
	PlanServerIDs
	// PlanServerData offloads execution and receives full records (Table 1
	// fully-server, data absent).
	PlanServerData
)

// String implements fmt.Stringer.
func (p Plan) String() string {
	switch p {
	case PlanLocal:
		return "fully-client"
	case PlanServerIDs:
		return "server-ids"
	case PlanServerData:
		return "fully-server"
	}
	return fmt.Sprintf("Plan(%d)", uint8(p))
}

// CostModel calibrates the planner's analytic inputs: the per-work cycle
// prices and the power draws of §4.1, defaulting to the repository's
// simulated machines (Table 2–4).
type CostModel struct {
	// ClientHz and ServerHz are the two clock rates.
	ClientHz, ServerHz float64
	// CyclesPerNodeVisit prices one index-node visit of the filtering step
	// (scan + MBR tests, cache effects folded in).
	CyclesPerNodeVisit float64
	// CyclesPerCandidate prices one refinement: record decode + exact
	// geometry predicate.
	CyclesPerCandidate float64
	// CyclesPerResultID prices materializing one answer id locally.
	CyclesPerResultID float64
	// CyclesPerProtoPacket and CyclesPerProtoByte price protocol
	// processing (§5.2).
	CyclesPerProtoPacket, CyclesPerProtoByte float64
	// Powers in watts: client compute, NIC transmit/receive/idle/sleep,
	// and the blocked-core draw.
	PClient, PTx, PRx, PIdle, PSleep, PBlocked float64
}

// DefaultCostModel prices work like the simulated Table 3/4 machines: a
// 125 MHz client against a 1 GHz server at 1 km range.
func DefaultCostModel() CostModel {
	e := energy.DefaultParams()
	return CostModel{
		ClientHz:             cpu.DefaultClientConfig().ClockHz,
		ServerHz:             cpu.DefaultServerConfig().ClockHz,
		CyclesPerNodeVisit:   600,
		CyclesPerCandidate:   1500,
		CyclesPerResultID:    40,
		CyclesPerProtoPacket: 400,
		CyclesPerProtoByte:   4,
		PClient:              0.2,
		PTx:                  nic.TxPower1Km,
		PRx:                  nic.RxPower,
		PIdle:                nic.IdlePower,
		PSleep:               nic.SleepPower,
		PBlocked:             e.CPUSleepWatts,
	}
}

// Planner chooses and executes per-query plans for one client.
type Planner struct {
	c       *Client
	model   CostModel
	eps     float64
	batch   int
	ship    *Shipment
	metrics plannerMetrics
}

// NewPlanner builds a planner with the default cost model; the §4.1
// performance condition (client cycles saved) decides each plan. Observability follows the client: with Config.Obs
// set, every Execute records per-scheme metrics, a sampled span, and the
// predicted-vs-actual partitioning error.
func NewPlanner(c *Client) *Planner {
	return &Planner{c: c, model: DefaultCostModel(), eps: core.PointEps,
		metrics: newPlannerMetrics(c.hub)}
}

// SetBatch declares that offloaded queries travel in batches of n (the
// QueryBatch wire message), so the advisor prices the per-exchange costs —
// frame and packet headers, protocol cycles, the NIC wakeup — at 1/n per
// query. n <= 1 restores unbatched pricing.
func (p *Planner) SetBatch(n int) {
	if n < 1 {
		n = 1
	}
	p.batch = n
}

// Shipment returns the cached shipment, nil before FetchShipment.
func (p *Planner) Shipment() *Shipment { return p.ship }

// FetchShipment pulls and caches a shipment covering window under
// budgetBytes of client memory (see Client.FetchShipment).
func (p *Planner) FetchShipment(window geom.Rect, budgetBytes, recordBytes int) error {
	ship, err := p.c.FetchShipment(window, budgetBytes, recordBytes)
	if err != nil {
		return err
	}
	p.ship = ship
	return nil
}

// Result is one planned execution's outcome.
type Result struct {
	Plan    Plan
	Records []proto.Record
	// Verdict is the advisor's reasoning for covered queries (zero value
	// when the plan was forced by missing coverage).
	Verdict core.Verdict
}

// Plan chooses the execution plan for q. Queries outside the shipment's
// coverage must go to the server; covered queries consult the §4.1 advisor
// with measured link conditions.
func (p *Planner) Plan(q core.Query) (Plan, core.Verdict) {
	plan, v, _, _ := p.plan(q)
	return plan, v
}

// plan is Plan plus the advisor inputs it decided with — the prediction the
// observability layer scores against the measured execution. advised is
// false when coverage forced the plan and no prediction exists.
func (p *Planner) plan(q core.Query) (plan Plan, v core.Verdict, in core.AnalyticInputs, advised bool) {
	if p.ship == nil || !p.ship.Covers(q) {
		return PlanServerData, core.Verdict{}, core.AnalyticInputs{}, false
	}
	if p.c.BreakerState() != BreakerClosed {
		// The link is tripped: a covered query runs locally regardless of
		// what the advisor would price — no NIC wakeup, no fail-fast error,
		// just the fully-client scheme the breaker degrades to.
		return PlanLocal, core.Verdict{}, core.AnalyticInputs{}, false
	}
	in = p.analyticInputs(q)
	v = in.Advise()
	if v.SavesCycles {
		return PlanServerIDs, v, in, true
	}
	return PlanLocal, v, in, true
}

// Execute plans and runs q, recording the execution as a span and scoring
// the advisor's prediction against the measured outcome when obs is enabled.
func (p *Planner) Execute(q core.Query) (Result, error) {
	var (
		sp *obs.Span
		em obs.EnergyModel
	)
	if hub := p.c.hub; hub != nil {
		sp = hub.Trace.Start(queryKindName(q.Kind))
		em = hub.Energy
	}

	planStart := time.Now()
	plan, v, in, advised := p.plan(q)
	planSec := time.Since(planStart).Seconds()
	sp.SetScheme(plan.String())
	sp.Lap(obs.StagePlan, planSec)
	j, cy := em.Compute(planSec)
	sp.Attribute(obs.StagePlan, j, cy)

	execStart := time.Now()
	res, err := p.runPlan(plan, v, q, sp, em)
	totalSec := planSec + time.Since(execStart).Seconds()
	if err != nil {
		sp.SetErr()
	}

	// Score and record before Finish: a finished span may be recycled.
	actualJoules := sp.TotalJoules()
	m := &p.metrics
	m.plans[res.Plan].Inc()
	m.execHist[res.Plan].Observe(totalSec)
	m.joules[res.Plan].Add(actualJoules)
	if advised && res.Plan == plan && err == nil {
		predSec := in.FullyLocalCycles() / in.ClientHz
		predJoules := in.FullyLocalJoules()
		if plan == PlanServerIDs {
			predSec = in.PartitionedCycles() / in.ClientHz
			predJoules = in.PartitionedJoules()
		}
		if totalSec > 0 {
			m.cycleRatio[plan].Observe(predSec / totalSec)
		}
		if actualJoules > 0 {
			m.energyRatio[plan].Observe(predJoules / actualJoules)
		}
	}
	sp.Finish()
	return res, err
}

// runPlan executes one chosen plan, clocking the span stages and pricing
// them with the energy model.
func (p *Planner) runPlan(plan Plan, v core.Verdict, q core.Query, sp *obs.Span, em obs.EnergyModel) (Result, error) {
	bw := p.c.Link().BandwidthBps
	switch plan {
	case PlanLocal:
		start := time.Now()
		recs, err := p.ship.Answer(q, p.eps)
		sec := time.Since(start).Seconds()
		sp.Lap(obs.StageIndexWalk, sec)
		j, cy := em.Compute(sec)
		sp.Attribute(obs.StageIndexWalk, j, cy)
		return Result{Plan: plan, Records: recs, Verdict: v}, err
	case PlanServerIDs:
		var t wireTally
		start := time.Now()
		ids, err := p.serverIDs(q, &t)
		attributeWire(sp, em, time.Since(start).Seconds(), t.tx, t.rx, bw)
		if err != nil {
			return Result{Plan: plan}, err
		}
		replyStart := time.Now()
		recs := make([]proto.Record, 0, len(ids))
		for _, id := range ids {
			if r, ok := p.ship.Record(id); ok {
				recs = append(recs, r)
			} else {
				// The server knows records the shipment lacks (it can
				// happen only on uncovered queries, which don't take this
				// plan; kept as a safety net): fall back to full records.
				sp.SetScheme(PlanServerData.String())
				var ft wireTally
				fullStart := time.Now()
				full, ferr := p.serverData(q, &ft)
				attributeWire(sp, em, time.Since(fullStart).Seconds(), ft.tx, ft.rx, bw)
				return Result{Plan: PlanServerData, Records: full, Verdict: v}, ferr
			}
		}
		replySec := time.Since(replyStart).Seconds()
		sp.Lap(obs.StageReply, replySec)
		j, cy := em.Compute(replySec)
		sp.Attribute(obs.StageReply, j, cy)
		return Result{Plan: plan, Records: recs, Verdict: v}, nil
	default:
		var t wireTally
		start := time.Now()
		recs, err := p.serverData(q, &t)
		attributeWire(sp, em, time.Since(start).Seconds(), t.tx, t.rx, bw)
		return Result{Plan: plan, Records: recs, Verdict: v}, err
	}
}

// serverIDs runs q on the server for ids only; t receives the frame bytes
// the exchange moved.
func (p *Planner) serverIDs(q core.Query, t *wireTally) ([]uint32, error) {
	m, err := p.wireQuery(q, proto.ModeIDs)
	if err != nil {
		return nil, err
	}
	if q.Kind == core.PointQuery || q.Kind == core.RangeQuery {
		ids, _, err := p.c.queryWithFallback(m, t)
		return ids, err
	}
	ids, _, err := p.c.query(m, t)
	return ids, err
}

// serverData runs q on the server for full records; t receives the frame
// bytes the exchange moved.
func (p *Planner) serverData(q core.Query, t *wireTally) ([]proto.Record, error) {
	m, err := p.wireQuery(q, proto.ModeData)
	if err != nil {
		return nil, err
	}
	_, recs, err := p.c.queryWithFallback(m, t)
	return recs, err
}

// wireQuery builds the pooled request for q; the client's query path
// releases it.
func (p *Planner) wireQuery(q core.Query, mode proto.Mode) (*proto.QueryMsg, error) {
	if q.K > math.MaxUint16 {
		return nil, fmt.Errorf("client: k=%d exceeds wire limit", q.K)
	}
	m := proto.AcquireQuery()
	m.Mode = mode
	switch q.Kind {
	case core.PointQuery:
		m.Kind, m.Point, m.Eps = proto.KindPoint, q.Point, p.eps
	case core.RangeQuery:
		m.Kind, m.Window = proto.KindRange, q.Window
	default:
		m.Kind, m.Point, m.K = proto.KindNN, q.Point, uint16(max(q.K, 1))
	}
	return m, nil
}

// estimateWork predicts the filtering/refinement volume of q against the
// shipment: node visits from the sub-tree shape, candidates from the
// shipment's spatial density (range) or small constants (point/NN).
func (p *Planner) estimateWork(q core.Query) (nodeVisits, candidates, hits float64) {
	t := p.ship.Tree
	height := float64(t.Height())
	fanout := float64(t.Fanout())
	n := float64(t.Len())

	switch q.Kind {
	case core.RangeQuery:
		cov := p.ship.Coverage
		frac := 0.0
		if a := cov.Area(); a > 0 {
			frac = q.Window.Intersection(cov).Area() / a
		}
		candidates = n * frac
		if candidates < 1 {
			candidates = 1
		}
		hits = candidates
	default:
		k := float64(q.K)
		if k < 1 {
			k = 1
		}
		// A point stabs a handful of leaf MBRs; NN visits a few more.
		candidates = 4 + 2*k
		hits = k
	}
	nodeVisits = height + candidates/fanout
	return nodeVisits, candidates, hits
}

// analyticInputs builds the §4.1 advisor inputs for "local against the
// shipment" versus "offload, ids back" under the measured link.
func (p *Planner) analyticInputs(q core.Query) core.AnalyticInputs {
	m := p.model
	link := p.c.Link()
	bw := link.BandwidthBps
	if bw <= 0 {
		// No bandwidth estimate yet: assume the paper's base 2 Mbps.
		bw = 2e6
	}
	nodeVisits, candidates, hits := p.estimateWork(q)

	// Fully-local: filter + refine at the client.
	cFullyLocal := nodeVisits*m.CyclesPerNodeVisit + candidates*m.CyclesPerCandidate

	// Offloaded: the server does the same logical work at its clock; the
	// reply carries ids only (the shipment holds the records). The
	// client-observed wait folds the measured RTT into Cw2.
	cw2 := nodeVisits*m.CyclesPerNodeVisit + candidates*m.CyclesPerCandidate +
		link.RTT.Seconds()*m.ServerHz

	// Wire pricing. Unbatched, one query pays a full request frame and a
	// full reply frame. Batched (SetBatch), B queries share one
	// request/reply exchange, so the per-query bits and protocol cycles are
	// the batch totals over B — the §4.1 model's per-exchange terms
	// amortized exactly the way MsgBatchQuery amortizes them on the wire.
	batch := p.batch
	if batch < 1 {
		batch = 1
	}
	var tx, rx proto.Transfer
	if batch > 1 {
		tx = proto.Packetize(proto.BatchQueryBytes(batch))
		rx = proto.Packetize(proto.BatchIDListBytes(batch, batch*int(hits)))
	} else {
		tx = proto.Packetize(proto.QueryRequestBytes)
		rx = proto.Packetize(proto.IDListBytes(int(hits)))
	}
	b := float64(batch)
	cProtocol := (float64(tx.Packets+rx.Packets)*m.CyclesPerProtoPacket +
		float64(tx.PayloadBytes+rx.PayloadBytes)*m.CyclesPerProtoByte) / b
	cLocal := hits * m.CyclesPerResultID

	return core.AnalyticInputs{
		BandwidthBps: bw,
		CFullyLocal:  cFullyLocal,
		CLocal:       cLocal,
		CProtocol:    cProtocol,
		CW2:          cw2,
		ClientHz:     m.ClientHz,
		ServerHz:     m.ServerHz,
		PacketTxBits: float64(tx.WireBytes*8) / b,
		PacketRxBits: float64(rx.WireBytes*8) / b,
		PClient:      m.PClient,
		PTx:          m.PTx,
		PRx:          m.PRx,
		PIdle:        m.PIdle,
		PSleep:       m.PSleep,
		PBlocked:     m.PBlocked,
	}
}
