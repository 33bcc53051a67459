package datalog

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Rule plans and their compiled form.
//
// planOrder fixes the order in which a rule's body literals evaluate;
// compilePlan turns one order into a plan over numbered variable slots. Each
// atom compiles to bind ops (a variable's first occurrence) and check ops
// (constants and variables bound earlier), each expression to slot reads, so
// evaluation never touches a name-keyed binding. Which slots are bound at
// every step is fixed at compile time: a slot is read only by ops compiled
// after the op that writes it, so backtracking needs no undo — the next
// candidate simply overwrites the slots its atom binds.

// ruleMeta is the per-rule evaluation plan computed at engine construction.
type ruleMeta struct {
	order     []int             // body literal evaluation order (round 0, Naive, NoIndex)
	headVars  []Variable        // universally-quantified head variables
	existVars map[Variable]bool // head variables that are existential
	aggIdx    int               // index (into order) of the aggregate literal, -1 if none
	aggHead   int               // head atom defining the aggregation group
	aggSkip   map[int]bool      // positions of aggHead holding the aggregate target
	label     string            // cached "label: rule text" for provenance

	// Compiled by NewEngine only (CheckWarded and the reference evaluator
	// need the order alone).
	full         *plan      // order, compiled
	byDelta      []*plan    // per positive body literal: that literal first, then the greedy order
	redo         []*plan    // per head atom: order with the head's variables pre-bound (DRed rederive)
	head         []headOp   // head atoms over slots
	frontierVars []Variable // headVars the body binds, with their slots
	frontier     []int
	group        []headArg // aggregation group: the aggHead arguments, target excluded
	contrib      string    // "r<index>|", the prefix of every contributor key
	nslots       int
}

// plan is one compiled evaluation order of a rule body.
type plan struct {
	steps []step
	// headAtom is set on rederive plans: the head atom whose match against
	// the fact to rederive pre-binds the head variables.
	headAtom *atomOp
}

// step is one compiled body literal.
type step struct {
	kind LitKind
	lit  int // body literal index, compared against chaseJob.deltaLit

	atom *atomOp // LitAtom, LitNot

	cmp         CmpOp    // LitCmp
	left, right slotExpr // LitCmp

	expr  slotExpr // LitAssign value, LitAgg contribution
	slot  int      // LitAssign, LitAgg target
	check bool     // LitAssign whose target is already bound: an equality test

	agg     AggOp // LitAgg
	contrib []int // LitAgg contributor slots
}

// atomOp matches one atom against facts. binds write the fact's arguments
// into slots; checks compare arguments against constants (slot -1, val) or
// slots. checks[:nprobe] are known before the atom matches (constants and
// variables bound by earlier literals), in position order, so lookup can
// probe a positional index with them; the rest compare positions against
// variables this same atom binds (p(X, X)).
type atomOp struct {
	pred   string
	arity  int
	binds  []argBind
	checks []argCheck
	nprobe int
}

type argBind struct{ pos, slot int }

type argCheck struct {
	pos  int
	slot int // -1: compare against val
	val  any
}

// value resolves a check's expected value.
func (c argCheck) value(vals []any) any {
	if c.slot < 0 {
		return c.val
	}
	return vals[c.slot]
}

// unify matches f against the atom, writing its bindings into vals. On
// failure vals may hold partial writes, but only to slots that are unbound
// at this step, which nothing reads before the next bind.
func (a *atomOp) unify(f Fact, vals []any) bool {
	if len(f.Args) != a.arity {
		return false
	}
	for _, b := range a.binds {
		vals[b.slot] = f.Args[b.pos]
	}
	for _, c := range a.checks {
		if !valueEqual(c.value(vals), f.Args[c.pos]) {
			return false
		}
	}
	return true
}

// headOp instantiates one head atom over the slots.
type headOp struct {
	pred string
	args []headArg
}

// headArg is one argument of a head atom or of an aggregation group: a
// slot, or one of the argConst/argExist/argTarget/argUnbound kinds.
type headArg struct {
	slot int
	val  any      // argConst
	v    Variable // argExist, argUnbound
}

const (
	argConst   = -1 // the constant val
	argExist   = -2 // an existential variable: a null invented over the frontier
	argTarget  = -3 // the aggregate target, excluded from the group
	argUnbound = -4 // a variable the body never binds: an error when reached
)

// slotExpr is an Expr compiled over slots.
type slotExpr struct {
	kind byte // exprConst, exprSlot, exprBin, exprCall
	val  any
	slot int
	op   byte       // exprBin operator
	name string     // exprCall builtin
	args []slotExpr // exprBin: {L, R}; exprCall: the call arguments
}

const (
	exprConst byte = iota
	exprSlot
	exprBin
	exprCall
)

// eval evaluates the expression over the slot values.
func (x *slotExpr) eval(builtins map[string]Builtin, vals []any) (any, error) {
	switch x.kind {
	case exprConst:
		return x.val, nil
	case exprSlot:
		return vals[x.slot], nil
	case exprBin:
		lv, err := x.args[0].eval(builtins, vals)
		if err != nil {
			return nil, err
		}
		rv, err := x.args[1].eval(builtins, vals)
		if err != nil {
			return nil, err
		}
		return applyBin(x.op, lv, rv)
	case exprCall:
		args := make([]any, len(x.args))
		for i := range x.args {
			v, err := x.args[i].eval(builtins, vals)
			if err != nil {
				return nil, err
			}
			args[i] = v
		}
		return applyCall(builtins, x.name, args)
	}
	return nil, fmt.Errorf("datalog: bad compiled expression kind %d", x.kind)
}

// slotTable numbers the variables of a rule (or a query goal).
type slotTable map[Variable]int

func (t slotTable) of(v Variable) int {
	s, ok := t[v]
	if !ok {
		s = len(t)
		t[v] = s
	}
	return s
}

// compileAtom compiles an atom given the variables already bound, marking
// the variables it binds.
func compileAtom(a Atom, slots slotTable, bound map[Variable]bool) *atomOp {
	op := &atomOp{pred: a.Pred, arity: len(a.Terms)}
	var late []argCheck
	local := map[Variable]bool{}
	for i, t := range a.Terms {
		switch tt := t.(type) {
		case Constant:
			op.checks = append(op.checks, argCheck{pos: i, slot: -1, val: tt.Value})
		case Variable:
			if tt == "_" {
				continue
			}
			s := slots.of(tt)
			switch {
			case local[tt]:
				late = append(late, argCheck{pos: i, slot: s})
			case bound[tt]:
				op.checks = append(op.checks, argCheck{pos: i, slot: s})
			default:
				op.binds = append(op.binds, argBind{pos: i, slot: s})
				local[tt] = true
			}
		}
	}
	op.nprobe = len(op.checks)
	op.checks = append(op.checks, late...)
	for v := range local {
		bound[v] = true
	}
	return op
}

func compileExpr(ex Expr, slots slotTable) slotExpr {
	switch x := ex.(type) {
	case TermExpr:
		switch t := x.Term.(type) {
		case Constant:
			return slotExpr{kind: exprConst, val: t.Value}
		case Variable:
			return slotExpr{kind: exprSlot, slot: slots.of(t)}
		}
	case BinExpr:
		return slotExpr{kind: exprBin, op: x.Op, args: []slotExpr{compileExpr(x.L, slots), compileExpr(x.R, slots)}}
	case CallExpr:
		args := make([]slotExpr, len(x.Args))
		for i, a := range x.Args {
			args[i] = compileExpr(a, slots)
		}
		return slotExpr{kind: exprCall, name: x.Name, args: args}
	}
	// Unreachable for parsed programs; evaluating it reports the problem.
	return slotExpr{kind: 0xff}
}

// compilePlan compiles a body order. prebound lists variables bound before
// the body runs (the head variables of a rederive plan).
func compilePlan(r Rule, order []int, slots slotTable, prebound map[Variable]bool) *plan {
	bound := make(map[Variable]bool, len(prebound))
	for v := range prebound {
		bound[v] = true
	}
	p := &plan{steps: make([]step, 0, len(order))}
	for _, li := range order {
		l := r.Body[li]
		st := step{kind: l.Kind, lit: li}
		switch l.Kind {
		case LitAtom, LitNot:
			// A negated atom's variables are all bound (the planner waits for
			// them), so it compiles to checks alone.
			st.atom = compileAtom(l.Atom, slots, bound)
		case LitCmp:
			st.cmp = l.Cmp
			st.left = compileExpr(l.Left, slots)
			st.right = compileExpr(l.Right, slots)
		case LitAssign:
			st.expr = compileExpr(l.Expr, slots)
			st.slot = slots.of(l.Var)
			st.check = bound[l.Var]
			bound[l.Var] = true
		case LitAgg:
			st.expr = compileExpr(l.AggValue, slots)
			st.slot = slots.of(l.Var)
			st.agg = l.Agg
			for _, c := range l.Contributors {
				st.contrib = append(st.contrib, slots.of(c))
			}
			bound[l.Var] = true
		}
		p.steps = append(p.steps, st)
	}
	return p
}

// compileRule fills the compiled half of a rule's meta: the full-order plan,
// one delta-first plan per positive body literal, one rederive plan per head
// atom, and the head, frontier and aggregation-group ops.
func compileRule(ri int, r Rule, meta *ruleMeta) error {
	slots := slotTable{}
	meta.full = compilePlan(r, meta.order, slots, nil)
	meta.byDelta = make([]*plan, len(r.Body))
	for li, l := range r.Body {
		if l.Kind != LitAtom {
			continue
		}
		order, _, _, err := planOrder(r, li)
		if err != nil {
			return err
		}
		meta.byDelta[li] = compilePlan(r, order, slots, nil)
	}

	// The body binds the same variables whatever the order.
	written := map[Variable]bool{}
	for _, l := range r.Body {
		switch l.Kind {
		case LitAtom:
			bodyVarsOfAtom(l.Atom, written)
		case LitAssign, LitAgg:
			written[l.Var] = true
		}
	}
	delete(written, "_")
	arg := func(t Term) headArg {
		switch tt := t.(type) {
		case Constant:
			return headArg{slot: argConst, val: tt.Value}
		case Variable:
			switch {
			case written[tt]:
				return headArg{slot: slots.of(tt)}
			case meta.existVars[tt]:
				return headArg{slot: argExist, v: tt}
			default:
				return headArg{slot: argUnbound, v: tt}
			}
		}
		return headArg{slot: argUnbound}
	}
	for _, h := range r.Head {
		op := headOp{pred: h.Pred, args: make([]headArg, len(h.Terms))}
		for i, t := range h.Terms {
			op.args[i] = arg(t)
		}
		meta.head = append(meta.head, op)
	}
	for _, v := range meta.headVars {
		if written[v] {
			meta.frontierVars = append(meta.frontierVars, v)
			meta.frontier = append(meta.frontier, slots.of(v))
		}
	}
	if meta.aggIdx >= 0 {
		for i, t := range r.Head[meta.aggHead].Terms {
			if meta.aggSkip[i] {
				meta.group = append(meta.group, headArg{slot: argTarget})
			} else {
				meta.group = append(meta.group, arg(t))
			}
		}
		meta.contrib = "r" + strconv.Itoa(ri) + "|"
	}

	for _, h := range r.Head {
		pre := map[Variable]bool{}
		headAtom := compileAtom(h, slots, pre)
		rp := compilePlan(r, meta.order, slots, pre)
		rp.headAtom = headAtom
		meta.redo = append(meta.redo, rp)
	}
	meta.nslots = len(slots)
	return nil
}

// frontierKey identifies the frontier binding of an existential rule firing:
// the rule index plus every bound frontier variable and its value (vals[i]
// is the value of vars[i]). Invented nulls hash it, so equal frontiers
// invent equal nulls.
func frontierKey(ri int, vars []Variable, vals []any) string {
	var sb strings.Builder
	sb.WriteByte('r')
	sb.WriteString(strconv.Itoa(ri))
	for i, v := range vars {
		sb.WriteByte('|')
		sb.WriteString(string(v))
		sb.WriteByte('=')
		appendValue(&sb, vals[i])
	}
	return sb.String()
}

// planRule computes the rule's evaluation plan in the default order (see
// planOrder), the head variables, and the existential set.
func planRule(r Rule) (ruleMeta, error) {
	order, bound, aggIdx, err := planOrder(r, -1)
	if err != nil {
		return ruleMeta{}, err
	}

	headVarSet := make(map[Variable]bool)
	for _, h := range r.Head {
		bodyVarsOfAtom(h, headVarSet)
	}
	var headVars []Variable
	exist := make(map[Variable]bool)
	for v := range headVarSet {
		if bound[v] {
			headVars = append(headVars, v)
		} else {
			exist[v] = true
		}
	}
	sort.Slice(headVars, func(i, j int) bool { return headVars[i] < headVars[j] })

	aggHead := 0
	aggSkip := map[int]bool{}
	if aggIdx >= 0 {
		target := r.Body[order[aggIdx]].Var
		// The group is defined by the first head atom mentioning the target;
		// if none mentions it (e.g. the msum only feeds a condition, as in
		// Algorithm 5), the whole first head atom is the group.
		for hi, h := range r.Head {
			mentions := false
			for _, t := range h.Terms {
				if v, ok := t.(Variable); ok && v == target {
					mentions = true
					break
				}
			}
			if mentions {
				aggHead = hi
				break
			}
		}
		for i, t := range r.Head[aggHead].Terms {
			if v, ok := t.(Variable); ok && v == target {
				aggSkip[i] = true
			}
		}
	}
	return ruleMeta{order: order, headVars: headVars, existVars: exist, aggIdx: aggIdx, aggHead: aggHead, aggSkip: aggSkip}, nil
}

// planOrder computes a greedy body literal order: atoms as they appear;
// assignments, conditions and negations as soon as their inputs are bound;
// aggregates after everything else they need. With first >= 0 the positive
// atom at that body index goes first — the semi-naive plan for a delta on
// that literal, so every later atom is probed through an index on the
// variables the delta fact binds. It returns the order, the variables bound
// at the end, and the order index of the aggregate literal (-1 if none).
func planOrder(r Rule, first int) ([]int, map[Variable]bool, int, error) {
	n := len(r.Body)
	used := make([]bool, n)
	bound := make(map[Variable]bool)
	var order []int
	aggIdx := -1

	ready := func(l Literal) bool {
		set := map[Variable]bool{}
		switch l.Kind {
		case LitAtom:
			return true
		case LitAssign:
			l.Expr.vars(set)
		case LitCmp:
			l.Left.vars(set)
			l.Right.vars(set)
		case LitNot:
			bodyVarsOfAtom(l.Atom, set)
		case LitAgg:
			l.AggValue.vars(set)
			for _, c := range l.Contributors {
				set[c] = true
			}
		default:
			return false
		}
		for v := range set {
			if !bound[v] {
				return false
			}
		}
		return true
	}
	markBound := func(l Literal) {
		switch l.Kind {
		case LitAtom:
			bodyVarsOfAtom(l.Atom, bound)
		case LitAssign, LitAgg:
			bound[l.Var] = true
		}
	}

	if first >= 0 {
		used[first] = true
		order = append(order, first)
		markBound(r.Body[first])
	}
	for len(order) < n {
		progress := false
		// Prefer non-atom literals that are ready (cheap filters first),
		// except aggregates, which run as late as possible.
		for pass := 0; pass < 3 && len(order) < n; pass++ {
			for i := 0; i < n; i++ {
				if used[i] {
					continue
				}
				l := r.Body[i]
				switch pass {
				case 0: // ready filters/assignments
					if (l.Kind == LitCmp || l.Kind == LitAssign || l.Kind == LitNot) && ready(l) {
						used[i] = true
						order = append(order, i)
						markBound(l)
						progress = true
					}
				case 1: // next positive atom in textual order
					if l.Kind == LitAtom {
						used[i] = true
						order = append(order, i)
						markBound(l)
						progress = true
						pass = -1 // restart filter pass after each atom
					}
				case 2: // aggregates once everything else is in place
					if l.Kind == LitAgg && ready(l) {
						used[i] = true
						order = append(order, i)
						markBound(l)
						aggIdx = len(order) - 1
						progress = true
					}
				}
				if pass == -1 {
					break
				}
			}
		}
		if !progress {
			return nil, nil, -1, fmt.Errorf("cannot order body literals (unbound inputs): %s", r)
		}
	}
	return order, bound, aggIdx, nil
}
