package datalog

// The reference evaluator: a deliberately naive Datalog± interpreter used as
// the differential-testing oracle for the indexed, parallel production
// engine. It re-implements matching and fixpoint computation from scratch —
// full linear scans for every candidate lookup, copied name-keyed binding
// maps instead of compiled slots, a tree-walking expression evaluator,
// canonical-encoding string comparison instead of valueEqual — so a bug in
// the engine's index maintenance, delta-first plans, slot compilation,
// buffered merge, or typed equality shows up as a fact-set divergence
// rather than being mirrored by shared code.
//
// The reference deliberately shares three things with the engine, all of
// which are specification rather than execution machinery:
//
//   - planRule, for the body-literal evaluation order (assignment and
//     condition literals are only evaluable once their inputs are bound, and
//     the set of bound head variables defines the existential frontier);
//   - frontierKey/hashKey, so invented nulls coincide — the chase is
//     deterministic, and the paper's set semantics makes null identity part
//     of the expected output;
//   - applyBin/applyCall, the arithmetic and builtin semantics, which are
//     orthogonal to the join path under test.
//
// Monotonic aggregation is out of scope (the random programs never emit it);
// newReference rejects aggregate rules loudly.

import (
	"fmt"
	"sort"
)

func sortStrings(s []string) { sort.Strings(s) }

type refEvaluator struct {
	prog     *Program
	builtins map[string]Builtin
	metas    []ruleMeta
	strata   [][]int

	facts map[string][]Fact
	keys  map[string]bool
}

func newReference(prog *Program) (*refEvaluator, error) {
	r := &refEvaluator{
		prog:     prog,
		builtins: map[string]Builtin{},
		facts:    map[string][]Fact{},
		keys:     map[string]bool{},
	}
	for i, rule := range prog.Rules {
		if err := rule.Validate(); err != nil {
			return nil, err
		}
		for _, l := range rule.Body {
			if l.Kind == LitAgg {
				return nil, fmt.Errorf("reference evaluator does not support aggregates (rule %d)", i)
			}
		}
		meta, err := planRule(rule)
		if err != nil {
			return nil, err
		}
		r.metas = append(r.metas, meta)
	}
	strata, err := stratify(prog)
	if err != nil {
		return nil, err
	}
	r.strata = strata
	return r, nil
}

func (r *refEvaluator) assert(f Fact) bool {
	k := f.Key()
	if r.keys[k] {
		return false
	}
	r.keys[k] = true
	r.facts[f.Pred] = append(r.facts[f.Pred], f)
	return true
}

// refUnify matches an atom against a fact under a binding, returning a fresh
// extended binding (the original is never mutated). Ground values compare by
// canonical encoding — the specification of term equality.
func refUnify(a Atom, f Fact, b map[Variable]any) (map[Variable]any, bool) {
	if a.Pred != f.Pred || len(a.Terms) != len(f.Args) {
		return nil, false
	}
	nb := make(map[Variable]any, len(b)+len(a.Terms))
	for k, v := range b {
		nb[k] = v
	}
	for i, t := range a.Terms {
		switch tt := t.(type) {
		case Constant:
			if encodeValue(tt.Value) != encodeValue(f.Args[i]) {
				return nil, false
			}
		case Variable:
			if tt == "_" {
				continue
			}
			if v, bound := nb[tt]; bound {
				if encodeValue(v) != encodeValue(f.Args[i]) {
					return nil, false
				}
			} else {
				nb[tt] = f.Args[i]
			}
		}
	}
	return nb, true
}

// bodyBindings enumerates every binding satisfying the rule body, by
// exhaustive linear scans.
func (r *refEvaluator) bodyBindings(rule Rule, meta ruleMeta) ([]map[Variable]any, error) {
	bindings := []map[Variable]any{{}}
	for _, li := range meta.order {
		l := rule.Body[li]
		var next []map[Variable]any
		for _, b := range bindings {
			switch l.Kind {
			case LitAtom:
				for _, f := range r.facts[l.Atom.Pred] {
					if nb, ok := refUnify(l.Atom, f, b); ok {
						next = append(next, nb)
					}
				}
			case LitNot:
				found := false
				for _, f := range r.facts[l.Atom.Pred] {
					if _, ok := refUnify(l.Atom, f, b); ok {
						found = true
						break
					}
				}
				if !found {
					next = append(next, b)
				}
			case LitCmp:
				lv, err := evalExprWith(r.builtins, l.Left, b)
				if err != nil {
					return nil, err
				}
				rv, err := evalExprWith(r.builtins, l.Right, b)
				if err != nil {
					return nil, err
				}
				if compare(l.Cmp, lv, rv) {
					next = append(next, b)
				}
			case LitAssign:
				v, err := evalExprWith(r.builtins, l.Expr, b)
				if err != nil {
					return nil, err
				}
				if old, bound := b[l.Var]; bound {
					if encodeValue(old) == encodeValue(v) {
						next = append(next, b)
					}
					continue
				}
				nb := make(map[Variable]any, len(b)+1)
				for k, vv := range b {
					nb[k] = vv
				}
				nb[l.Var] = v
				next = append(next, nb)
			}
		}
		bindings = next
		if len(bindings) == 0 {
			return nil, nil
		}
	}
	return bindings, nil
}

// run computes the fixpoint: stratum by stratum, re-deriving every rule from
// the full store until an iteration adds nothing.
func (r *refEvaluator) run() error {
	for _, stratum := range r.strata {
		for changed := true; changed; {
			changed = false
			for _, ri := range stratum {
				rule := r.prog.Rules[ri]
				meta := r.metas[ri]
				bindings, err := r.bodyBindings(rule, meta)
				if err != nil {
					return err
				}
				for _, b := range bindings {
					var frontier string
					if len(meta.existVars) > 0 {
						var vars []Variable
						var vals []any
						for _, v := range meta.headVars {
							if val, ok := b[v]; ok {
								vars = append(vars, v)
								vals = append(vals, val)
							}
						}
						frontier = frontierKey(ri, vars, vals)
					}
					for _, h := range rule.Head {
						args := make([]any, len(h.Terms))
						for i, t := range h.Terms {
							switch tt := t.(type) {
							case Constant:
								args[i] = tt.Value
							case Variable:
								if v, ok := b[tt]; ok {
									args[i] = v
								} else if meta.existVars[tt] {
									args[i] = Null{ID: hashKey(frontier + "|" + string(tt))}
								} else {
									return fmt.Errorf("reference: head variable %s unbound in rule %d", tt, ri)
								}
							}
						}
						if r.assert(Fact{Pred: h.Pred, Args: args}) {
							changed = true
						}
					}
				}
			}
		}
	}
	return nil
}

// factSet renders every fact of the given predicates as a sorted key list —
// the comparison form of the differential tests.
func (r *refEvaluator) factSet(preds []string) []string {
	var out []string
	for _, p := range preds {
		for _, f := range r.facts[p] {
			out = append(out, f.Key())
		}
	}
	sortStrings(out)
	return out
}

// evalExprWith evaluates an expression tree under a name-keyed binding.
func evalExprWith(builtins map[string]Builtin, ex Expr, binding map[Variable]any) (any, error) {
	switch x := ex.(type) {
	case TermExpr:
		switch t := x.Term.(type) {
		case Constant:
			return t.Value, nil
		case Variable:
			v, ok := binding[t]
			if !ok {
				return nil, fmt.Errorf("reference: unbound variable %s in expression", t)
			}
			return v, nil
		}
	case BinExpr:
		lv, err := evalExprWith(builtins, x.L, binding)
		if err != nil {
			return nil, err
		}
		rv, err := evalExprWith(builtins, x.R, binding)
		if err != nil {
			return nil, err
		}
		return applyBin(x.Op, lv, rv)
	case CallExpr:
		args := make([]any, len(x.Args))
		for i, a := range x.Args {
			v, err := evalExprWith(builtins, a, binding)
			if err != nil {
				return nil, err
			}
			args[i] = v
		}
		return applyCall(builtins, x.Name, args)
	}
	return nil, fmt.Errorf("reference: bad expression %v", ex)
}
