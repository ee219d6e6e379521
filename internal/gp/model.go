package gp

import (
	"fmt"
	"math"

	"hydra/internal/lal"
)

// Model is a geometric program under construction: positive variables, a
// posynomial objective to minimize, and posynomial inequality constraints
// fi(x) <= 1.
type Model struct {
	names []string
	lo    []float64 // lower bounds (>0) or 0 when absent
	hi    []float64 // upper bounds or +Inf when absent
	obj   Posynomial
	cons  []Posynomial
	tags  []string // one diagnostic tag per constraint
}

// NewModel returns an empty model.
func NewModel() *Model { return &Model{} }

// AddVar adds a positive variable with the given name and returns its handle.
func (m *Model) AddVar(name string) Var {
	m.names = append(m.names, name)
	m.lo = append(m.lo, 0)
	m.hi = append(m.hi, math.Inf(1))
	return Var{idx: len(m.names) - 1, model: m}
}

// AddBoundedVar adds a positive variable with bounds lo <= x <= hi
// (enforced as the monomial constraints lo*x^-1 <= 1 and x/hi <= 1).
// lo must be positive and <= hi.
func (m *Model) AddBoundedVar(name string, lo, hi float64) Var {
	v := m.AddVar(name)
	m.lo[v.idx] = lo
	m.hi[v.idx] = hi
	return v
}

// Minimize sets the posynomial objective.
func (m *Model) Minimize(p Posynomial) { m.obj = p }

// AddConstraint adds the posynomial constraint p <= 1. The tag is used in
// diagnostics and infeasibility reports.
func (m *Model) AddConstraint(p Posynomial, tag string) {
	m.cons = append(m.cons, p)
	m.tags = append(m.tags, tag)
}

// AddLessEq adds the constraint lhs <= rhs for a posynomial lhs and monomial
// rhs, by dividing through: lhs/rhs <= 1.
func (m *Model) AddLessEq(lhs Posynomial, rhs Monomial, tag string) {
	m.AddConstraint(lhs.MulMon(Mon(1).Div(rhs)), tag)
}

// compiled is the log-space representation of the program. Constraint i is
// Fi(t) = logsumexp(A_i t + b_i) <= 0; the objective is F0 in the same form.
type compiled struct {
	n    int // variables
	obj  logSumExp
	cons []logSumExp
	tags []string
}

// compile validates the model and lowers posynomials to log-space data,
// materialising variable bounds as extra monomial constraints.
func (m *Model) compile() (*compiled, error) {
	n := len(m.names)
	if n == 0 {
		return nil, fmt.Errorf("gp: model has no variables")
	}
	if m.obj == nil {
		return nil, fmt.Errorf("gp: model has no objective")
	}
	if err := m.obj.validate(n); err != nil {
		return nil, fmt.Errorf("gp: objective: %w", err)
	}
	c := &compiled{n: n, obj: newLogSumExp(m.obj, n)}
	for i, p := range m.cons {
		if err := p.validate(n); err != nil {
			return nil, fmt.Errorf("gp: constraint %q: %w", m.tags[i], err)
		}
		c.cons = append(c.cons, newLogSumExp(p, n))
		c.tags = append(c.tags, m.tags[i])
	}
	for j := 0; j < n; j++ {
		if m.lo[j] < 0 || math.IsNaN(m.lo[j]) {
			return nil, fmt.Errorf("gp: variable %s has invalid lower bound %g", m.names[j], m.lo[j])
		}
		if m.lo[j] > m.hi[j] {
			return nil, fmt.Errorf("gp: variable %s has empty bound interval [%g,%g]", m.names[j], m.lo[j], m.hi[j])
		}
		if m.lo[j] > 0 {
			p := Posynomial{Monomial{Coeff: m.lo[j], Exps: map[int]float64{j: -1}}}
			c.cons = append(c.cons, newLogSumExp(p, n))
			c.tags = append(c.tags, fmt.Sprintf("lb(%s)", m.names[j]))
		}
		if !math.IsInf(m.hi[j], 1) {
			if !(m.hi[j] > 0) {
				return nil, fmt.Errorf("gp: variable %s has non-positive upper bound %g", m.names[j], m.hi[j])
			}
			p := Posynomial{Monomial{Coeff: 1 / m.hi[j], Exps: map[int]float64{j: 1}}}
			c.cons = append(c.cons, newLogSumExp(p, n))
			c.tags = append(c.tags, fmt.Sprintf("ub(%s)", m.names[j]))
		}
	}
	return c, nil
}

// initialPoint returns a log-space starting point: the geometric midpoint of
// each variable's bound interval, or 1 (t=0) when unbounded.
func (m *Model) initialPoint() lal.Vector {
	t := lal.NewVector(len(m.names))
	for j := range t {
		lo, hi := m.lo[j], m.hi[j]
		switch {
		case lo > 0 && !math.IsInf(hi, 1):
			t[j] = 0.5 * (math.Log(lo) + math.Log(hi))
		case lo > 0:
			t[j] = math.Log(lo) + 1
		case !math.IsInf(hi, 1):
			t[j] = math.Log(hi) - 1
		default:
			t[j] = 0
		}
	}
	return t
}

// equalitySlack relaxes monomial equalities to a thin band so the feasible
// set keeps a strict interior — required by the log-barrier method. The
// returned ratio a/b is guaranteed within 1 ± 2*equalitySlack.
const equalitySlack = 1e-7

// AddEquality adds the monomial equality constraint a == b (valid in GP for
// monomials only), encoded as the near-tight inequality pair
// a/b <= 1+eps and b/a <= 1+eps with eps = equalitySlack, because an exact
// pair would leave the interior-point method no strictly feasible interior.
func (m *Model) AddEquality(a, b Monomial, tag string) {
	scale := 1 / (1 + equalitySlack)
	m.AddConstraint(Posynomial{a.Div(b).Scale(scale)}, tag+" (<=)")
	m.AddConstraint(Posynomial{b.Div(a).Scale(scale)}, tag+" (>=)")
}

// ConstraintValues evaluates every user constraint posynomial at x and
// returns (tag, value) pairs; a constraint is satisfied when value <= 1 and
// binding when value is within tol of 1. Variable-bound constraints are not
// included (inspect x against the bounds directly).
func (m *Model) ConstraintValues(x []float64) []ConstraintValue {
	out := make([]ConstraintValue, len(m.cons))
	for i, p := range m.cons {
		out[i] = ConstraintValue{Tag: m.tags[i], Value: p.Eval(x)}
	}
	return out
}

// ConstraintValue pairs a constraint tag with its left-hand-side value.
type ConstraintValue struct {
	Tag   string
	Value float64
}

// Binding reports whether the constraint is active within tol.
func (c ConstraintValue) Binding(tol float64) bool {
	return c.Value >= 1-tol && c.Value <= 1+tol
}
