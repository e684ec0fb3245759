package fleet

import (
	"fmt"
	"math"
	"sort"

	"paotr/internal/query"
	"paotr/internal/sched"
)

// The resident joint state. Proposition 2 gives every schedule's
// per-item acquisition probability P, so the joint cost of a set of
// schedules has the closed form c_k * (1 - Π_q (1 - P_q)) per uncached
// item (see the package doc), and pricing one more query against fixed
// residents needs only the residents' per-item products. residentState
// keeps those products live for every resident class, over the classes'
// current schedules (G) and over their independent orders (I, for the
// best-of-two guardrail).
//
// Every P is taken cold, with no warm mask. The mask in
// sched.Prefix.AppendVisit only skips cached items and leaves the
// probabilities of the rest unchanged, so cold cells price correctly
// under any warm snapshot: a cached item is simply left out of the sums.

// prod is a running product of factors in [0, 1] from which a factor can
// be divided out again. Zero factors are counted rather than multiplied
// in, and the rest keep a mantissa and a binary exponent, so thousands of
// factors neither underflow nor lose the quotient when one leaves. A
// product whose last factor leaves is exactly 1 again.
type prod struct {
	m     float64
	exp   int
	zeros int32
	n     int32 // factors held, zeros included
}

var unitProd = prod{m: 1}

func (p *prod) mul(f float64) {
	p.n++
	if f <= 0 {
		p.zeros++
		return
	}
	p.m *= f
	if p.m < 0x1p-256 {
		p.norm()
	}
}

func (p *prod) div(f float64) {
	if p.n--; p.n == 0 {
		*p = unitProd
		return
	}
	if f <= 0 {
		p.zeros--
		return
	}
	p.m /= f
	if p.m > 0x1p256 {
		p.norm()
	}
}

func (p *prod) norm() {
	fr, e := math.Frexp(p.m)
	p.m, p.exp = fr, p.exp+e
}

func (p prod) value() float64 {
	if p.zeros > 0 {
		return 0
	}
	return math.Ldexp(p.m, p.exp)
}

// cell is one item a schedule may acquire: item d+1 of stream k, with
// cold probability p.
type cell struct {
	k, d int32
	p    float64
}

// residentClass is one resident class: the cells of its current
// schedule, the one the next plan keeps (g), and of its independent order
// (i).
type residentClass struct {
	g, i []cell
}

// residentState is the live joint state of a Planner's resident classes.
// All of it is guarded by the planner lock.
type residentState struct {
	classes map[string]*residentClass
	// g[k][d] is Π (1 - P) over the classes' current schedules on item
	// d+1 of stream k, and i[k][d] the same over their independent orders.
	// Rows only grow; an item no class acquires holds 1.
	g, i [][]prod
	// warm is the cache state the sums are taken against: sumG[k] is
	// Σ (1 - g[k][d]) over the items of stream k that warm does not cache,
	// sumI[k] likewise, so the resident totals are G = Σ_k c_k sumG[k] and
	// I = Σ_k c_k sumI[k]. touched marks the streams whose sums wait for
	// resum.
	warm       sched.Warm
	sumG, sumI []float64
	touched    []bool

	// Scratch reused under the planner lock, so that refreshing a class
	// allocates nothing once its cells exist: a cold prefix evaluator with
	// a dense per-item accumulator, and the one-tree joint state, greedy
	// selection state and background rows that price a newcomer.
	px  *sched.Prefix
	acc [][]float64
	st  jointState
	gs  greedyScratch
	one [1]*query.Tree
	bg  [][]float64
}

// set makes s and indep the current schedule and independent order of
// class key, both leaf orders of tree: the class's old cells are divided
// out of the products and its new ones multiplied in. The sums wait for
// resum.
func (r *residentState) set(key string, tree *query.Tree, s, indep sched.Schedule) {
	rc := r.classes[key]
	if rc == nil {
		if r.classes == nil {
			r.classes = map[string]*residentClass{}
		}
		rc = &residentClass{}
		r.classes[key] = rc
	} else {
		r.apply(rc, true)
	}
	rc.g = r.cells(rc.g[:0], tree, s)
	rc.i = r.cells(rc.i[:0], tree, indep)
	r.apply(rc, false)
}

// remove drops class key, if resident, and re-takes the sums.
func (r *residentState) remove(key string) {
	rc := r.classes[key]
	if rc == nil {
		return
	}
	r.apply(rc, true)
	delete(r.classes, key)
	r.resum()
}

// cells appends to dst the cold per-item acquisition probabilities of
// schedule s of tree (Proposition 2, summed over the leaves that may
// acquire each item), growing the product rows to cover them.
func (r *residentState) cells(dst []cell, tree *query.Tree, s sched.Schedule) []cell {
	if r.px == nil {
		r.px = sched.NewPrefix(tree)
	} else {
		r.px.ReinitWarm(tree, nil)
	}
	maxD := r.px.MaxItems()
	for len(r.acc) < len(maxD) {
		r.acc = append(r.acc, nil)
	}
	n := 0
	for k, items := range maxD {
		for len(r.acc[k]) < items {
			r.acc[k] = append(r.acc[k], 0)
		}
		if items > 0 {
			r.grow(k, items)
		}
		n += items
	}
	if cap(dst) < n {
		dst = make([]cell, 0, n)
	}
	for _, j := range s {
		r.px.AppendVisit(j, func(k query.StreamID, d int, pr float64) { r.acc[k][d] += pr })
	}
	for k, items := range maxD {
		row := r.acc[k]
		for d := range items {
			if row[d] != 0 {
				dst = append(dst, cell{k: int32(k), d: int32(d), p: row[d]})
				row[d] = 0
			}
		}
	}
	return dst
}

// grow extends the rows of stream k to cover its first items items.
func (r *residentState) grow(k, items int) {
	for len(r.g) <= k {
		r.g = append(r.g, nil)
		r.i = append(r.i, nil)
		r.sumG = append(r.sumG, 0)
		r.sumI = append(r.sumI, 0)
		r.touched = append(r.touched, false)
	}
	for len(r.g[k]) < items {
		r.g[k] = append(r.g[k], unitProd)
		r.i[k] = append(r.i[k], unitProd)
	}
}

// apply multiplies the class's cells into the products, or divides them
// out, and marks the streams it touches.
func (r *residentState) apply(rc *residentClass, remove bool) {
	applyCells(r.g, rc.g, remove, r.touched)
	applyCells(r.i, rc.i, remove, r.touched)
}

func applyCells(rows [][]prod, cells []cell, remove bool, touched []bool) {
	for _, c := range cells {
		p := &rows[c.k][c.d]
		if remove {
			p.div(1 - c.p)
		} else {
			p.mul(1 - c.p)
		}
		touched[c.k] = true
	}
}

// resum re-takes the sums of every touched stream against r.warm.
func (r *residentState) resum() {
	for k, t := range r.touched {
		if !t {
			continue
		}
		r.touched[k] = false
		sg, si := 0.0, 0.0
		for d := range r.g[k] {
			if !r.warm.Has(query.StreamID(k), d+1) {
				sg += 1 - r.g[k][d].value()
				si += 1 - r.i[k][d].value()
			}
		}
		r.sumG[k], r.sumI[k] = sg, si
	}
}

// agrees reports whether warm caches exactly the resident items r.warm
// caches, so that the sums hold under warm too.
func (r *residentState) agrees(warm sched.Warm) bool {
	for k := range r.g {
		s := query.StreamID(k)
		for d := range r.g[k] {
			if warm.Has(s, d+1) != r.warm.Has(s, d+1) {
				return false
			}
		}
	}
	return true
}

// rebase takes the sums against warm from now on, re-taking them all
// unless warm agrees with the current basis.
func (r *residentState) rebase(warm sched.Warm) {
	if r.agrees(warm) {
		return
	}
	for len(r.warm) < len(r.g) {
		r.warm = append(r.warm, nil)
	}
	for k := range r.g {
		row := r.warm[k][:0]
		for d := range r.g[k] {
			row = append(row, warm.Has(query.StreamID(k), d+1))
		}
		r.warm[k] = row
		r.touched[k] = true
	}
	r.resum()
}

// pricing is a newcomer priced against the resident state.
type pricing struct {
	// quote is max(min(G+g, I+i) - G, 0): g is the greedy placement of the
	// newcomer's AND units against the products of the current schedules,
	// i its independent order against the products of the independent
	// orders, and G and I the resident totals.
	quote float64
	// placed is the greedy placement g priced (built only when asked for)
	// and indep the independent order i priced.
	placed, indep sched.Schedule
	// alone is indep's own expected cost at warm: the newcomer planned
	// alone, as PlanJoint plans a one-tree fleet.
	alone float64
	// reads counts the per-(stream, item) products read.
	reads int
}

// price prices tree against the state at warm without writing the state.
func (r *residentState) price(tree *query.Tree, warm sched.Warm, keepPlaced bool) pricing {
	var pr pricing
	st := &r.st
	r.one[0] = tree

	st.reset(r.one[:], warm)
	n := 0
	r.bg, n = background(r.bg, r.g, st.px[0].MaxItems())
	pr.reads += n
	st.bg = r.bg
	units := appendUnitsOf(r.gs.units[:0], 0, tree, 1, warm)
	g := 0.0
	placeGreedyHeap(st, units, &r.gs, func(u unit, delta float64) {
		g += delta
		if keepPlaced {
			pr.placed = append(pr.placed, u.leaves...)
		}
	})
	r.gs.units = units[:0]

	pr.indep = independentOrder(tree, warm)
	st.reset(r.one[:], warm)
	r.bg, n = background(r.bg, r.i, st.px[0].MaxItems())
	pr.reads += n
	st.bg = r.bg
	i := st.appendUnit(unit{leaves: pr.indep}, false)
	pr.alone = sched.CostWarm(tree, pr.indep, warm)

	gap, n := r.gap(tree, warm)
	pr.reads += n
	pr.quote = max(min(g, gap+i), 0)
	r.one[0] = nil
	return pr
}

// background lays the rows' products over the items a tree reads (maxD
// per stream) out as the factors jointState.cross multiplies in, and
// counts the products it read.
func background(bg [][]float64, rows [][]prod, maxD []int) ([][]float64, int) {
	for len(bg) < len(maxD) {
		bg = append(bg, nil)
	}
	reads := 0
	for k, items := range maxD {
		row := bg[k][:0]
		for d := range items {
			v := 1.0
			if k < len(rows) && d < len(rows[k]) {
				v = rows[k][d].value()
				reads++
			}
			row = append(row, v)
		}
		bg[k] = row
	}
	return bg, reads
}

// gap returns I - G, the resident guardrail's slack, at warm and the
// tree's per-item costs: from the sums when warm agrees with their basis,
// else summed afresh over the resident items. It also returns the
// products it read.
func (r *residentState) gap(tree *query.Tree, warm sched.Warm) (float64, int) {
	agree := r.agrees(warm)
	gap, reads := 0.0, 0
	for k := range r.g {
		c := 0.0
		if k < len(tree.Streams) {
			c = tree.Streams[k].Cost
		}
		if agree {
			gap += c * (r.sumI[k] - r.sumG[k])
			continue
		}
		for d := range r.g[k] {
			if !warm.Has(query.StreamID(k), d+1) {
				gap += c * (r.g[k][d].value() - r.i[k][d].value())
				reads += 2
			}
		}
	}
	return gap, reads
}

// rebuilt returns the state rebuilt from r's own per-class cells: every
// product multiplied afresh in key order, with no division, and the sums
// taken against a copy of r's basis.
func (r *residentState) rebuilt() *residentState {
	keys := make([]string, 0, len(r.classes))
	for key := range r.classes {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	ref := &residentState{}
	for k := range r.g {
		ref.grow(k, len(r.g[k]))
	}
	for _, key := range keys {
		ref.apply(r.classes[key], false)
	}
	ref.rebase(r.warm)
	ref.resum()
	return ref
}

// CheckResident verifies the resident joint state: it must hold exactly
// the class keys given, every running product must equal a rebuild from
// the classes' own cells within 1e-12, and every sum the rebuilt sum
// within 1e-9 (a NaN fails). It is the audit the state's property and
// race tests run.
func (pl *Planner) CheckResident(keys []string) error {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	r := &pl.res
	live := map[string]bool{}
	for _, key := range keys {
		live[key] = true
		if r.classes[key] == nil {
			return fmt.Errorf("fleet: class %q is not resident", key)
		}
	}
	for key := range r.classes {
		if !live[key] {
			return fmt.Errorf("fleet: class %q is resident but not live", key)
		}
	}
	ref := r.rebuilt()
	for k := range r.g {
		if r.touched[k] {
			return fmt.Errorf("fleet: stream %d has sums waiting for resum", k)
		}
		for d := range r.g[k] {
			if got, want := r.g[k][d].value(), ref.g[k][d].value(); !(math.Abs(got-want) <= 1e-12) {
				return fmt.Errorf("fleet: G product of stream %d item %d is %v, rebuilt %v", k, d+1, got, want)
			}
			if got, want := r.i[k][d].value(), ref.i[k][d].value(); !(math.Abs(got-want) <= 1e-12) {
				return fmt.Errorf("fleet: I product of stream %d item %d is %v, rebuilt %v", k, d+1, got, want)
			}
		}
		if !(math.Abs(r.sumG[k]-ref.sumG[k]) <= 1e-9 && math.Abs(r.sumI[k]-ref.sumI[k]) <= 1e-9) {
			return fmt.Errorf("fleet: sums of stream %d are %v/%v, rebuilt %v/%v", k, r.sumG[k], r.sumI[k], ref.sumG[k], ref.sumI[k])
		}
	}
	return nil
}
