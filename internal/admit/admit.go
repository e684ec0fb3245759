// Package admit is the admission controller for the continuous-query
// service: it decides, for every incoming registration, whether the
// fleet can afford it. The currency is the paper's own cost model — a
// registration is priced by its marginal joint acquisition cost
// (expected J per planned tick, quoted by fleet.Planner.Quote as the
// delta of the joint plan that keeps every resident and places the
// newcomer over the resident plan), so a query that
// overlaps resident shapes and streams is nearly free while one that
// drags in new streams pays its full independent price.
//
// Three mechanisms gate admission:
//
//   - Per-tenant token buckets denominated in J/tick: each tenant's
//     bucket refills at a fixed rate and an admission spends the quoted
//     marginal cost from it, bounding how fast any tenant can grow the
//     fleet's planned energy budget.
//   - Per-tier price ceilings: gold/silver/bronze tiers carry distinct
//     admission thresholds, so a bronze registration cannot buy an
//     expensive disjoint workload that a gold one could.
//   - A p99 tick-latency SLO: the controller watches a windowed p99 of
//     the service's total-tick latency (fed from the obs histograms)
//     and, while the gold-tier SLO is burning, sheds bronze and defers
//     silver registrations before gold feels anything.
//
// Decisions are Admit, Defer (come back in RetryAfterTicks — budget
// will have refilled or the overload window re-evaluated), or Shed
// (rejected outright). The controller is pure policy: it never touches
// the planner or the service; the service-side gate quotes, asks, and
// enforces (see service.AdmissionGate).
package admit

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"paotr/internal/obs"
)

// Tier is a registration's priority class.
type Tier int

const (
	// TierGold is the protected class: admitted while its SLO holds,
	// never shed to protect anyone else.
	TierGold Tier = iota
	// TierSilver is the middle class: deferred (not shed) under SLO burn.
	TierSilver
	// TierBronze is the best-effort class, first to be shed under
	// overload and the default for untagged registrations.
	TierBronze
	// NumTiers is the number of priority tiers.
	NumTiers
)

// TierNames are the stable exposition names, indexed by Tier.
var TierNames = [NumTiers]string{"gold", "silver", "bronze"}

// String returns the tier's exposition name.
func (t Tier) String() string {
	if t < 0 || t >= NumTiers {
		return fmt.Sprintf("tier(%d)", int(t))
	}
	return TierNames[t]
}

// MarshalJSON encodes the tier as its exposition name.
func (t Tier) MarshalJSON() ([]byte, error) { return []byte(`"` + t.String() + `"`), nil }

// UnmarshalJSON decodes an exposition name (or the empty string, which
// is bronze) back to a Tier.
func (t *Tier) UnmarshalJSON(b []byte) error {
	s := strings.Trim(string(b), `"`)
	v, err := ParseTier(s)
	if err != nil {
		return err
	}
	*t = v
	return nil
}

// ParseTier maps an exposition name to its Tier. The empty string is
// TierBronze — untagged registrations ride best-effort.
func ParseTier(s string) (Tier, error) {
	switch strings.ToLower(s) {
	case "":
		return TierBronze, nil
	case "gold":
		return TierGold, nil
	case "silver":
		return TierSilver, nil
	case "bronze":
		return TierBronze, nil
	}
	return TierBronze, fmt.Errorf("admit: unknown tier %q (want gold, silver, or bronze)", s)
}

// Action is an admission decision's outcome.
type Action int

const (
	// Admit: register the query; its quote has been charged to the
	// tenant's budget.
	Admit Action = iota
	// Defer: do not register now, retry after Decision.RetryAfterTicks —
	// the budget will have refilled or the overload window re-evaluated.
	Defer
	// Shed: reject outright (price above the tier's ceiling, or bronze
	// under SLO burn).
	Shed
	// NumActions is the number of decision outcomes.
	NumActions
)

// ActionNames are the stable exposition names, indexed by Action.
var ActionNames = [NumActions]string{"admit", "defer", "shed"}

// String returns the action's exposition name.
func (a Action) String() string {
	if a < 0 || a >= NumActions {
		return fmt.Sprintf("action(%d)", int(a))
	}
	return ActionNames[a]
}

// MarshalJSON encodes the action as its exposition name.
func (a Action) MarshalJSON() ([]byte, error) { return []byte(`"` + a.String() + `"`), nil }

// UnmarshalJSON decodes an exposition name back into its Action.
func (a *Action) UnmarshalJSON(b []byte) error {
	s := strings.Trim(string(b), `"`)
	for i, name := range ActionNames {
		if name == s {
			*a = Action(i)
			return nil
		}
	}
	return fmt.Errorf("admit: unknown action %q", s)
}

// Config parameterizes a Controller. The zero value is not useful; start
// from DefaultConfig.
type Config struct {
	// RefillJPerTick is each tenant's budget refill rate and BurstJ the
	// bucket capacity (and initial balance), both in expected J/tick of
	// quoted marginal cost. Admissions spend their quote from the bucket,
	// so a tenant can grow the fleet's planned energy by at most
	// RefillJPerTick per tick, with BurstJ of headroom for storms.
	RefillJPerTick float64
	BurstJ         float64
	// MaxQuoteJ is the per-tier admission price ceiling: a registration
	// quoting above its tier's ceiling is shed regardless of budget.
	// Zero or negative means no ceiling for that tier.
	MaxQuoteJ [NumTiers]float64
	// SLOTickP99 is the per-tier p99 total-tick-latency objective. The
	// gold target drives shedding: while the recent p99 exceeds it the
	// controller sheds bronze and defers silver. Silver and bronze
	// targets are exposition (reported in Metrics so operators can see
	// which tiers' objectives the current latency violates).
	SLOTickP99 [NumTiers]time.Duration
	// WindowTicks is the SLO evaluation window: the recent p99 is
	// computed over the last WindowTicks tick observations.
	WindowTicks int
}

// DefaultConfig returns generous production defaults: budgets that an
// interactive fleet never exhausts, no gold ceiling, and a 250ms gold
// p99 objective evaluated over 64-tick windows.
func DefaultConfig() Config {
	return Config{
		RefillJPerTick: 25,
		BurstJ:         500,
		MaxQuoteJ:      [NumTiers]float64{0, 200, 50},
		SLOTickP99: [NumTiers]time.Duration{
			250 * time.Millisecond,
			time.Second,
			4 * time.Second,
		},
		WindowTicks: 64,
	}
}

// Request is one registration candidate as the controller sees it: the
// identity is for journaling only; policy reads Tenant, Tier, and the
// quoted marginal cost.
type Request struct {
	// ID is the query id being registered.
	ID string
	// Tenant is the budget owner (the service derives it from the id
	// prefix before the first '/').
	Tenant string
	// Tier is the registration's priority class.
	Tier Tier
	// QuoteJ is the quoted marginal joint cost in expected J/tick.
	QuoteJ float64
	// Deferred marks a retry of a previously deferred registration.
	Deferred bool
}

// Decision is the controller's verdict on one Request.
type Decision struct {
	// Action is the verdict; Reason a short operator-facing cause
	// ("budget-exhausted", "slo-burn", "price-ceiling", "admitted").
	Action Action `json:"action"`
	Reason string `json:"reason"`
	Tier   Tier   `json:"tier"`
	Tenant string `json:"tenant"`
	// QuoteJ echoes the quoted marginal cost the verdict priced.
	QuoteJ float64 `json:"quote_j"`
	// RetryAfterTicks is, for Defer, when retrying can succeed (budget
	// refilled or overload window re-evaluated). Zero otherwise.
	RetryAfterTicks int `json:"retry_after_ticks,omitempty"`
}

// bucket is one tenant's token bucket, refilled lazily.
type bucket struct {
	balance  float64
	lastTick int64
}

// Controller applies admission policy. Safe for concurrent use; all
// methods are cheap (a map lookup and a few comparisons — decision
// latency is measured by BENCH_admit.json).
type Controller struct {
	cfg Config

	mu      sync.Mutex
	tick    int64
	buckets map[string]*bucket

	// SLO window state: lat accumulates every tick latency; at each
	// window boundary the delta of its counts against prevCounts yields
	// the window's p99.
	lat        obs.Histogram
	prevCounts [obs.NumBuckets + 1]int64
	prevSum    int64
	recentP99  time.Duration
	overloaded bool

	decisions [NumTiers][NumActions]int64
	admittedJ float64
	shedGold  int64
}

// NewController builds a controller over cfg, filling unset knobs from
// DefaultConfig.
func NewController(cfg Config) *Controller {
	def := DefaultConfig()
	if cfg.RefillJPerTick <= 0 {
		cfg.RefillJPerTick = def.RefillJPerTick
	}
	if cfg.BurstJ <= 0 {
		cfg.BurstJ = def.BurstJ
	}
	if cfg.WindowTicks <= 0 {
		cfg.WindowTicks = def.WindowTicks
	}
	for i := range cfg.SLOTickP99 {
		if cfg.SLOTickP99[i] <= 0 {
			cfg.SLOTickP99[i] = def.SLOTickP99[i]
		}
	}
	return &Controller{cfg: cfg, buckets: map[string]*bucket{}}
}

// Config returns the controller's effective configuration.
func (c *Controller) Config() Config { return c.cfg }

// Decide prices one registration candidate against policy. Admit
// charges the quote to the tenant's budget; Defer and Shed charge
// nothing.
func (c *Controller) Decide(req Request) Decision {
	c.mu.Lock()
	defer c.mu.Unlock()

	d := Decision{Tier: req.Tier, Tenant: req.Tenant, QuoteJ: req.QuoteJ}
	tier := req.Tier
	if tier < 0 || tier >= NumTiers {
		tier = TierBronze
		d.Tier = TierBronze
	}

	// Price ceiling: a quote no budget refill will ever make affordable
	// for this tier is shed, not deferred.
	if max := c.cfg.MaxQuoteJ[tier]; max > 0 && req.QuoteJ > max {
		d.Action, d.Reason = Shed, "price-ceiling"
		return c.recordLocked(d)
	}

	// SLO burn: while the recent p99 exceeds the gold objective, bronze
	// is shed and silver deferred until the next window's verdict. Gold
	// proceeds — the point of shedding is to protect it.
	if c.overloaded {
		switch tier {
		case TierBronze:
			d.Action, d.Reason = Shed, "slo-burn"
			return c.recordLocked(d)
		case TierSilver:
			d.Action, d.Reason = Defer, "slo-burn"
			d.RetryAfterTicks = c.cfg.WindowTicks
			return c.recordLocked(d)
		}
	}

	// Token bucket: the admission spends the quote; an unaffordable
	// quote is deferred until the refill covers it.
	b := c.bucketLocked(req.Tenant)
	if req.QuoteJ > b.balance {
		d.Action, d.Reason = Defer, "budget-exhausted"
		d.RetryAfterTicks = int(math.Ceil((req.QuoteJ - b.balance) / c.cfg.RefillJPerTick))
		if d.RetryAfterTicks < 1 {
			d.RetryAfterTicks = 1
		}
		return c.recordLocked(d)
	}
	b.balance -= req.QuoteJ
	c.admittedJ += req.QuoteJ
	d.Action, d.Reason = Admit, "admitted"
	return c.recordLocked(d)
}

// recordLocked counts the decision. Caller holds c.mu.
func (c *Controller) recordLocked(d Decision) Decision {
	c.decisions[d.Tier][d.Action]++
	if d.Action == Shed && d.Tier == TierGold {
		c.shedGold++
	}
	return d
}

// bucketLocked returns the tenant's bucket, refilled to the current
// tick. Caller holds c.mu.
func (c *Controller) bucketLocked(tenant string) *bucket {
	b := c.buckets[tenant]
	if b == nil {
		b = &bucket{balance: c.cfg.BurstJ, lastTick: c.tick}
		c.buckets[tenant] = b
		return b
	}
	if dt := c.tick - b.lastTick; dt > 0 {
		b.balance = math.Min(c.cfg.BurstJ, b.balance+float64(dt)*c.cfg.RefillJPerTick)
	}
	b.lastTick = c.tick
	return b
}

// ObserveTick advances the controller's clock by one service tick and
// feeds the tick's total latency into the SLO window. At each window
// boundary the window's p99 is recomputed and the overload verdict
// re-evaluated against the gold objective.
func (c *Controller) ObserveTick(d time.Duration) {
	c.lat.Observe(d)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tick++
	if c.tick%int64(c.cfg.WindowTicks) != 0 {
		return
	}
	snap := c.lat.Snapshot()
	var win obs.HistSnapshot
	win.Counts = make([]int64, len(snap.Counts))
	for i, ct := range snap.Counts {
		win.Counts[i] = ct - c.prevCounts[i]
		win.Count += win.Counts[i]
		c.prevCounts[i] = ct
	}
	win.SumNs = snap.SumNs - c.prevSum
	c.prevSum = snap.SumNs
	c.recentP99 = time.Duration(win.Quantile(0.99))
	c.overloaded = win.Count > 0 && c.recentP99 > c.cfg.SLOTickP99[TierGold]
}

// Tick returns the controller's current tick clock.
func (c *Controller) Tick() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tick
}

// Overloaded reports whether the last completed SLO window's p99
// exceeded the gold objective.
func (c *Controller) Overloaded() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.overloaded
}

// SetOverloaded forces the overload verdict — a test and operations
// hook (drills) that the next window boundary overwrites.
func (c *Controller) SetOverloaded(v bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.overloaded = v
}

// TenantBudget is one tenant's budget state in a Metrics snapshot.
type TenantBudget struct {
	Tenant string `json:"tenant"`
	// BalanceJ is the bucket's balance refilled to the snapshot tick.
	BalanceJ float64 `json:"balance_j"`
}

// Metrics is a point-in-time snapshot of the controller: the overload
// verdict, the decision census, and every tenant's budget.
type Metrics struct {
	// Tick is the controller's tick clock; WindowTicks the SLO window.
	Tick        int64 `json:"tick"`
	WindowTicks int   `json:"window_ticks"`
	// RecentP99Ns is the last completed window's p99 total-tick latency;
	// Overloaded whether it exceeded the gold objective (SLOGoldNs).
	RecentP99Ns float64 `json:"recent_p99_ns"`
	Overloaded  bool    `json:"overloaded"`
	SLOGoldNs   float64 `json:"slo_gold_ns"`
	SLOSilverNs float64 `json:"slo_silver_ns"`
	SLOBronzeNs float64 `json:"slo_bronze_ns"`
	// Decisions is the census: tier name -> action name -> count.
	Decisions map[string]map[string]int64 `json:"decisions"`
	// AdmittedQuoteJ sums the quoted marginal costs of every admission —
	// the planned J/tick admission has let into the fleet.
	AdmittedQuoteJ float64 `json:"admitted_quote_j"`
	// ShedPrecision is the fraction of sheds that hit non-gold tiers
	// (1 when nothing was shed): the tiering guarantee, gated by
	// BENCH_admit.json under storm.
	ShedPrecision float64 `json:"shed_precision"`
	// RefillJPerTick / BurstJ echo the budget knobs; Tenants the
	// per-tenant balances, sorted by tenant.
	RefillJPerTick float64        `json:"refill_j_per_tick"`
	BurstJ         float64        `json:"burst_j"`
	Tenants        []TenantBudget `json:"tenants,omitempty"`
	// DeferredPending is the number of registrations parked in the defer
	// queue (filled by the service-side gate, not the controller).
	DeferredPending int `json:"deferred_pending"`
}

// Snapshot captures the controller's current Metrics.
func (c *Controller) Snapshot() Metrics {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := Metrics{
		Tick:           c.tick,
		WindowTicks:    c.cfg.WindowTicks,
		RecentP99Ns:    float64(c.recentP99),
		Overloaded:     c.overloaded,
		SLOGoldNs:      float64(c.cfg.SLOTickP99[TierGold]),
		SLOSilverNs:    float64(c.cfg.SLOTickP99[TierSilver]),
		SLOBronzeNs:    float64(c.cfg.SLOTickP99[TierBronze]),
		AdmittedQuoteJ: c.admittedJ,
		RefillJPerTick: c.cfg.RefillJPerTick,
		BurstJ:         c.cfg.BurstJ,
		Decisions:      make(map[string]map[string]int64, NumTiers),
	}
	var sheds, shedNonGold int64
	for t := Tier(0); t < NumTiers; t++ {
		row := make(map[string]int64, NumActions)
		for a := Action(0); a < NumActions; a++ {
			row[a.String()] = c.decisions[t][a]
			if a == Shed {
				sheds += c.decisions[t][a]
				if t != TierGold {
					shedNonGold += c.decisions[t][a]
				}
			}
		}
		m.Decisions[t.String()] = row
	}
	m.ShedPrecision = 1
	if sheds > 0 {
		m.ShedPrecision = float64(shedNonGold) / float64(sheds)
	}
	for tenant, b := range c.buckets {
		bal := b.balance
		if dt := c.tick - b.lastTick; dt > 0 {
			bal = math.Min(c.cfg.BurstJ, bal+float64(dt)*c.cfg.RefillJPerTick)
		}
		m.Tenants = append(m.Tenants, TenantBudget{Tenant: tenant, BalanceJ: bal})
	}
	sort.Slice(m.Tenants, func(i, j int) bool { return m.Tenants[i].Tenant < m.Tenants[j].Tenant })
	return m
}

// TenantOf derives the budget owner from a query id: the prefix before
// the first '/' (the whole id when there is none) — the demo fleet's
// "a/tachycardia" ids make "a" the tenant.
func TenantOf(id string) string {
	if i := strings.IndexByte(id, '/'); i >= 0 {
		return id[:i]
	}
	return id
}
