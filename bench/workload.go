package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"strconv"
	"strings"
	"time"
)

// sensorSeed seeds the wearables registry of every workload, in the
// server (its -seed flag), the traced runtime and the reference checker.
// It is fixed so that the seed a run is given varies the request stream
// while the fleet's J/tick stays a property of the code under test.
const sensorSeed = 1

// Reg is one registration as POST /queries carries it.
type Reg struct {
	ID    string `json:"id"`
	Query string `json:"query"`
	Every int    `json:"every,omitempty"`
	Tier  string `json:"tier"`
}

// Workload is one traffic mix: the server configuration it runs against
// and the generator of its seeded inputs.
type Workload struct {
	Name string
	Why  string
	// Shards and RelayFrac become the server's -shards and -relay-frac
	// flags, and the traced runtime's matching options.
	Shards    int
	RelayFrac float64
	// Queries is the number of registrations made during set-up, and
	// Shapes the distinct shapes they make (0: not fixed by the mix).
	Queries, Shapes int
	// Warmup ticks run after the registrations, as part of set-up.
	Warmup int
	// TicksPerSecond sizes the measured phase: a run of s seconds
	// measures s*TicksPerSecond ticks, rounded up to whole Cycles, so the
	// measured work depends on the arguments alone and the e2e and
	// traced runs measure the same ticks.
	TicksPerSecond float64
	Cycle          int
	// Churn is how many of the oldest queries are unregistered, and how
	// many new ones registered, before every measured tick.
	Churn int
	// ResultsHz and ScrapeHz are the rates of the open-loop reader on the
	// second connection while ticks run. Without them the second
	// connection reads in closed loop after the measured ticks.
	ResultsHz, ScrapeHz float64
	// gen returns the i-th registration.
	gen func(g *generator, i int) Reg
}

// A closed-loop read phase reads results at least closedResults times
// and for at least a sixth of the nominal measured time, then scrapes at
// least closedScrapes times and for at least half of it: ten samples
// beyond p90, taken over long enough to average out the machine's fast
// and slow spells. The traced replay reads results closedResults times,
// ten samples beyond its p99.
const (
	closedResults = 1000
	closedScrapes = 100
)

// workloads are the benchmark's traffic mixes; README.md says why each
// was chosen.
var workloads = []*Workload{
	{
		Name:   "twins-20k-4sh",
		Why:    "20k queries over 20 shapes on 4 shards with the relay: planning idles; the due scan, fan-out, merge and JSON encoding dominate",
		Shards: 4, RelayFrac: 0.1, Queries: 20_000, Shapes: 20, Warmup: 20, TicksPerSecond: 40, Cycle: 20,
		gen: func(g *generator, i int) Reg {
			return Reg{
				ID:    fmt.Sprintf("t%d/q%d", g.rng.IntN(50), i),
				Query: templates[i%len(templates)],
				Every: twinEvery[i%len(twinEvery)],
				Tier:  "gold",
			}
		},
	},
	{
		Name:   "distinct-200-1sh",
		Why:    "200 distinct shapes on one shard: joint planning, detector-forced replans and admission quotes dominate; nothing to fan out",
		Shards: 1, Queries: 200, Shapes: 200, Warmup: 10, TicksPerSecond: 50, Cycle: 1,
		gen: func(g *generator, i int) Reg {
			return Reg{ID: fmt.Sprintf("t%d/d%d", g.rng.IntN(50), i), Query: g.distinctQuery(i), Every: 1, Tier: "gold"}
		},
	},
	{
		Name:   "churn-read-5k-1sh",
		Why:    "5k mostly-twin queries, 20 swapped before every tick, while an open-loop reader polls results and scrapes metrics on the tick lock",
		Shards: 1, Queries: 5_000, Warmup: 10, TicksPerSecond: 35, Cycle: 1, Churn: 20,
		ResultsHz: 100, ScrapeHz: 25,
		gen: func(g *generator, i int) Reg {
			r := Reg{ID: fmt.Sprintf("t%d/c%d", g.rng.IntN(50), i), Every: 1, Tier: "gold"}
			if i%50 == 0 {
				r.Query = g.distinctQuery(i) // exactly 2% distinct shapes
			} else {
				r.Query = templates[g.rng.IntN(len(templates))]
			}
			return r
		},
	},
}

func workloadByName(name string) (*Workload, error) {
	var names []string
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
		names = append(names, w.Name)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// twinEvery assigns tick periods by registration index. With 20
// templates the period is a function of the template, so each shape
// class has one period, and about 28% of the queries are due per tick.
var twinEvery = []int{1, 1, 5, 5, 5, 20, 20, 20, 20, 20}

// templates are the 20 alert templates of cmd/paotrload's load mix.
var templates = []string{
	"AVG(heart-rate,5) > 100",
	"AVG(heart-rate,5) > 100 AND spo2 < 95",
	"heart-rate > 110 OR spo2 < 92",
	"AVG(spo2,4) < 93",
	"accelerometer > 15",
	"AVG(accelerometer,6) > 12 AND heart-rate > 90",
	"gps-speed > 1.5",
	"AVG(gps-speed,3) > 1.2 OR accelerometer > 18",
	"temperature > 38",
	"AVG(temperature,6) > 37.5 AND heart-rate > 85",
	"heart-rate > 120",
	"AVG(heart-rate,8) > 95 AND AVG(spo2,4) < 94",
	"spo2 < 90",
	"AVG(accelerometer,4) > 14 OR gps-speed > 2",
	"temperature > 37 AND AVG(heart-rate,5) > 90",
	"AVG(gps-speed,5) > 1 AND accelerometer > 10",
	"heart-rate > 100 OR temperature > 38.5",
	"AVG(spo2,6) < 95 AND temperature > 37.2",
	"gps-speed > 1.8 OR heart-rate > 115",
	"AVG(temperature,4) > 38 OR spo2 < 91",
}

// streamRange is the threshold range of distinct-shape predicates on one
// wearables stream, wide enough that both verdicts occur.
type streamRange struct {
	name   string
	lo, hi float64
	cmp    string
}

var ranges = []streamRange{
	{"heart-rate", 55, 110, ">"},
	{"spo2", 94, 99.5, "<"},
	{"accelerometer", 9.5, 16, ">"},
	{"gps-speed", 0.3, 2.2, ">"},
	{"temperature", 20, 24.5, ">"},
}

// generator is the seeded state behind a plan's registrations.
type generator struct {
	rng *rand.Rand
	// phase rotates the distinct shapes' threshold sequence.
	phase float64
}

// distinctQuery is the distinct shape of registration i. Its structure
// follows from i alone: an AND of two leaves on different streams for
// even i, an OR of two such ANDs for odd i, with streams and window
// sizes cycling. Thresholds walk each stream's range in golden-ratio
// steps from a seeded phase, so every seed spreads them alike and gives
// the planner about the same work, while the seed moves every value.
// The first threshold carries i in its last six digits, so no two
// registrations share a shape.
func (g *generator) distinctQuery(i int) string {
	and := func(a int) string {
		first := (i + 2*a) % len(ranges)
		streams := []int{first, (first + 1 + (i/len(ranges))%(len(ranges)-1)) % len(ranges)}
		leaves := make([]string, len(streams))
		for j, k := range streams {
			s := ranges[k]
			_, at := math.Modf(float64(4*i+2*a+j)*goldenRatio + g.phase)
			thr := strconv.FormatFloat(s.lo+(s.hi-s.lo)*at, 'f', 1, 64)
			if a == 0 && j == 0 {
				thr = fmt.Sprintf("%s%06d", thr, i%1_000_000)
			}
			if w := 1 + (i+3*a+5*j)%8; w > 1 {
				leaves[j] = fmt.Sprintf("AVG(%s,%d) %s %s", s.name, w, s.cmp, thr)
			} else {
				leaves[j] = fmt.Sprintf("%s %s %s", s.name, s.cmp, thr)
			}
		}
		return strings.Join(leaves, " AND ")
	}
	if i%2 == 0 {
		return and(0)
	}
	return "(" + and(0) + ") OR (" + and(1) + ")"
}

const goldenRatio = 0.6180339887498949

// Read is one scheduled open-loop read on the reader connection.
type Read struct {
	// AtMs is the scheduled send time after the first measured tick.
	AtMs float64 `json:"at_ms"`
	// Scrape selects GET /metrics.prom; otherwise the read is
	// GET /results/{id}?n=1 for the live query Pick selects (see
	// Plan.pickReg).
	Scrape bool    `json:"scrape,omitempty"`
	Pick   float64 `json:"pick,omitempty"`
}

// Plan is a workload's seeded input: every request the benchmark sends,
// except which live query an open-loop read hits, which also depends on
// how far the churn has got when the read is sent.
type Plan struct {
	W     *Workload `json:"-"`
	Seed  uint64    `json:"seed"`
	Base  []Reg     `json:"base"`
	Ticks int       `json:"ticks"`
	// Churn holds, for every measured tick, the registrations made after
	// unregistering the W.Churn oldest live queries.
	Churn [][]Reg `json:"churn,omitempty"`
	Reads []Read  `json:"reads,omitempty"`
	// ReadBase indexes, in order and round again, the base registrations
	// whose results the closed-loop reads fetch; ResultsFor and ScrapesFor
	// are the least time the closed-loop read phase spends on each.
	ReadBase   []int         `json:"read_base,omitempty"`
	ResultsFor time.Duration `json:"results_for,omitempty"`
	ScrapesFor time.Duration `json:"scrapes_for,omitempty"`
}

// NewPlan generates w's inputs for a seed and a run length in seconds.
func NewPlan(w *Workload, seed uint64, seconds float64) *Plan {
	rng := rand.New(rand.NewPCG(seed, 0x70a7))
	g := &generator{rng: rng, phase: rng.Float64()}
	p := &Plan{W: w, Seed: seed, Base: make([]Reg, w.Queries)}
	for i := range p.Base {
		p.Base[i] = w.gen(g, i)
	}
	cycles := int(seconds*w.TicksPerSecond/float64(w.Cycle) + 0.999)
	p.Ticks = max(cycles, 1) * w.Cycle
	next := w.Queries
	for t := 0; t < p.Ticks && w.Churn > 0; t++ {
		batch := make([]Reg, w.Churn)
		for i := range batch {
			batch[i] = w.gen(g, next)
			next++
		}
		p.Churn = append(p.Churn, batch)
	}
	if w.ResultsHz == 0 && w.ScrapeHz == 0 {
		for i := 0; i < closedResults; i++ {
			p.ReadBase = append(p.ReadBase, rng.IntN(len(p.Base)))
		}
		p.ResultsFor = time.Duration(seconds / 6 * float64(time.Second))
		p.ScrapesFor = time.Duration(seconds / 2 * float64(time.Second))
		return p
	}
	// The schedule runs to twice the nominal length so that a slow run
	// keeps reading; reads due after the last tick are not sent.
	horizon := 2000 * float64(p.Ticks) / w.TicksPerSecond
	for at := 0.0; at < horizon; at += 1000 / w.ResultsHz {
		p.Reads = append(p.Reads, Read{AtMs: at, Pick: rng.Float64()})
	}
	for at := 0.0; at < horizon; at += 1000 / w.ScrapeHz {
		p.Reads = append(p.Reads, Read{AtMs: at, Scrape: true})
	}
	sort.SliceStable(p.Reads, func(i, j int) bool { return p.Reads[i].AtMs < p.Reads[j].AtMs })
	return p
}

// reg returns the g-th registration of the run: the base, then the
// churn batches in order.
func (p *Plan) reg(g int) Reg {
	if g < len(p.Base) {
		return p.Base[g]
	}
	g -= len(p.Base)
	return p.Churn[g/p.W.Churn][g%p.W.Churn]
}

// pickReg maps a read's Pick to a query that is live while the read is
// served, given that `begun` churn batches had begun when it was sent.
// Registrations leave in arrival order, so batches before begun-1 have
// finished registering, and the next two batches may unregister their
// ids before the read lands; the ids in between are safe.
func (p *Plan) pickReg(pick float64, begun int) Reg {
	lo := (begun + 2) * p.W.Churn
	span := len(p.Base) - 3*p.W.Churn
	return p.reg(lo + int(pick*float64(span)))
}
