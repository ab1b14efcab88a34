"""First-order ring formulas over a parametrized affine base, evaluated by
enumeration over small finite fields.

Grammar (whitespace-insensitive):

    formula := or ('->' formula)?
    or      := and ('|' and)*
    and     := unary ('&' unary)*
    unary   := '~' unary | 'E' ident unary | 'A' ident unary
             | '(' formula ')' | poly ('=' | '!=') poly

Polynomial terms follow the polynomial text syntax.  Quantifiers range over
the whole field.  `eval_formula` treats the free variables and an all-`E`
prenex prefix as one enumeration: in each conjunct of the prenex DNF
matrix it solves one variable `v` from an equation `l = r` with
`l - r = c*v + rest`, where `c` is a constant nonzero in F_q and `rest`
does not contain `v`, and enumerates the other variables.  This is the
degree-1 projection of quantifier elimination, whose cover is trivial.  It
keeps the exhaustive scan when the prefix has an `A`, when the DNF has q
or more conjuncts, when some conjunct has no such equation, when some
conjunct would enumerate as many variables as the free variables plus the
quantifier depth, or when some coefficient's denominator is divisible by
p.  So solving never enumerates more tuples than the budget charges.

Every `Formula` names each bound variable once: no two quantifiers in its
body bind the same name, and no binder shares a name with a free variable
(derived or declared) or a base parameter.  Construction renames colliding
binders, outermost first, to `x_1`, `x_2`, ... (the least index whose name
is not yet in use in the formula), so prenexing never has to rename.
"""

from __future__ import annotations

import itertools

from .errors import (
    FormulaSyntaxError,
    UnboundVariableCollision,
    VariableMismatch,
)
from .fields import DEFAULT_BUDGET, FiniteField, check_budget
from .polynomials import Poly, _Tokens, _parse_sum


# -- AST ---------------------------------------------------------------------

class Node:
    __slots__ = ()


class Eq(Node):
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left, self.right = left, right


class Neq(Node):
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left, self.right = left, right


class And(Node):
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left, self.right = left, right


class Or(Node):
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left, self.right = left, right


class Not(Node):
    __slots__ = ("sub",)

    def __init__(self, sub):
        self.sub = sub


class Implies(Node):
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left, self.right = left, right


class Exists(Node):
    __slots__ = ("var", "sub")

    def __init__(self, var, sub):
        self.var, self.sub = var, sub


class Forall(Node):
    __slots__ = ("var", "sub")

    def __init__(self, var, sub):
        self.var, self.sub = var, sub


def _free_vars_node(node):
    """Free variables of a subformula, in first-occurrence order."""
    if isinstance(node, (Eq, Neq)):
        out = []
        for poly in (node.left, node.right):
            used = poly.used_variables()
            for v in poly.variables:
                if v in used and v not in out:
                    out.append(v)
        return out
    if isinstance(node, (And, Or, Implies)):
        out = _free_vars_node(node.left)
        for v in _free_vars_node(node.right):
            if v not in out:
                out.append(v)
        return out
    if isinstance(node, Not):
        return _free_vars_node(node.sub)
    if isinstance(node, (Exists, Forall)):
        return [v for v in _free_vars_node(node.sub) if v != node.var]
    raise TypeError(node)


def _bound_vars(node):
    if isinstance(node, (Exists, Forall)):
        return {node.var} | _bound_vars(node.sub)
    if isinstance(node, (And, Or, Implies)):
        return _bound_vars(node.left) | _bound_vars(node.right)
    if isinstance(node, Not):
        return _bound_vars(node.sub)
    return set()


class Formula:
    """A formula together with its base parameters and ordered free variables;
    the body's binders are standardized apart (see the module docstring)."""

    def __init__(self, body, base_params=(), free_vars=None):
        self.base_params = tuple(base_params)
        self._compiled = {}  # field -> predicate, filled by compile()
        self._plans = {}  # field -> solve plan or None, filled by solve_plan()
        bound = _bound_vars(body)
        if bound & set(self.base_params):
            raise UnboundVariableCollision(
                f"quantifier binds base parameter(s) {sorted(bound & set(self.base_params))}")
        derived = tuple(v for v in _free_vars_node(body)
                        if v not in self.base_params)
        if free_vars is None:
            self.free_vars = derived
        else:
            free_vars = tuple(free_vars)
            if set(derived) - set(free_vars):
                raise VariableMismatch(
                    f"free occurrence of {sorted(set(derived) - set(free_vars))} not declared")
            self.free_vars = free_vars
        self.body = _standardize(body, set(self.free_vars) | set(self.base_params), bound)

    def __str__(self):
        return _print_node(self.body)

    def __repr__(self):
        return f"Formula({self})"

    def is_sentence(self):
        return not self.free_vars

    def compile(self, k: FiniteField):
        """Predicate env -> bool over F_q, built once per field.

        env maps base parameters and free variables to field elements;
        quantifiers bind their variable in env while they run and restore
        it afterwards."""
        pred = self._compiled.get(k)
        if pred is None:
            pred = self._compiled[k] = _compile_node(self.body, k)
        return pred

    def solve_plan(self, k: FiniteField):
        """How eval_formula enumerates over F_q, built once per field: per
        DNF conjunct, (enumerated names, solved name, its value, atom
        checks); None where it scans (see the module docstring)."""
        if k not in self._plans:
            self._plans[k] = _solve_plan(self, k)
        return self._plans[k]

    def quantifier_depth(self):
        def depth(node):
            if isinstance(node, (Exists, Forall)):
                return 1 + depth(node.sub)
            if isinstance(node, (And, Or, Implies)):
                return max(depth(node.left), depth(node.right))
            if isinstance(node, Not):
                return depth(node.sub)
            return 0
        return depth(self.body)


def _print_node(node):
    if isinstance(node, Eq):
        return f"{node.left} = {node.right}"
    if isinstance(node, Neq):
        return f"{node.left} != {node.right}"
    if isinstance(node, And):
        return f"({_print_node(node.left)} & {_print_node(node.right)})"
    if isinstance(node, Or):
        return f"({_print_node(node.left)} | {_print_node(node.right)})"
    if isinstance(node, Implies):
        return f"({_print_node(node.left)} -> {_print_node(node.right)})"
    if isinstance(node, Not):
        return f"~({_print_node(node.sub)})"
    if isinstance(node, Exists):
        return f"E {node.var} ({_print_node(node.sub)})"
    if isinstance(node, Forall):
        return f"A {node.var} ({_print_node(node.sub)})"
    raise TypeError(node)


def _standardize(node, taken, bound):
    """Rename binders, outermost first and left to right, so that none binds
    a name in `taken`, which grows by every name bound.  A fresh name also
    avoids `bound`, the names bound anywhere in the body, so it is never
    captured below."""
    if isinstance(node, (Eq, Neq)):
        return node
    if isinstance(node, (And, Or, Implies)):
        return type(node)(_standardize(node.left, taken, bound),
                          _standardize(node.right, taken, bound))
    if isinstance(node, Not):
        return Not(_standardize(node.sub, taken, bound))
    if isinstance(node, (Exists, Forall)):
        var, sub = node.var, node.sub
        if var in taken:
            i = 1
            while f"{var}_{i}" in taken or f"{var}_{i}" in bound:
                i += 1
            sub = _substitute(sub, {var: Poly.variable(f"{var}_{i}")})
            var = f"{var}_{i}"
        taken.add(var)
        return type(node)(var, _standardize(sub, taken, bound))
    raise TypeError(node)


def _substitute(node, mapping):
    """Substitute mapping's polynomials or constants for the free occurrences
    of its names in every atom; a binder of a mapped name shadows it."""
    if isinstance(node, (Eq, Neq)):
        left, right = node.left, node.right
        if not mapping.keys().isdisjoint(left.variables):
            left = left.substitute(mapping)
        if not mapping.keys().isdisjoint(right.variables):
            right = right.substitute(mapping)
        return type(node)(left, right)
    if isinstance(node, (And, Or, Implies)):
        return type(node)(_substitute(node.left, mapping), _substitute(node.right, mapping))
    if isinstance(node, Not):
        return Not(_substitute(node.sub, mapping))
    if isinstance(node, (Exists, Forall)):
        if node.var in mapping:
            mapping = {k: v for k, v in mapping.items() if k != node.var}
        return type(node)(node.var, _substitute(node.sub, mapping))
    raise TypeError(node)


# -- parsing -------------------------------------------------------------------

_RESERVED = {"E", "A"}


def parse_formula(text: str, base_params=(), free_vars=None) -> Formula:
    toks = _Tokens(text)
    body = _parse_formula(toks)
    tok, pos = toks.peek()
    if tok is not None:
        raise FormulaSyntaxError(f"unexpected token {tok!r}", pos)
    return Formula(body, base_params=base_params, free_vars=free_vars)


def _parse_formula(toks):
    left = _parse_or(toks)
    tok, _ = toks.peek()
    if tok == "-":
        # lookahead for '->'
        save = toks.pos
        toks.next()
        tok2, _ = toks.peek()
        if tok2 == ">":
            toks.next()
            return Implies(left, _parse_formula(toks))
        toks.pos = save
    return left


def _parse_or(toks):
    left = _parse_and(toks)
    while True:
        tok, _ = toks.peek()
        if tok == "|":
            toks.next()
            left = Or(left, _parse_and(toks))
        else:
            return left


def _parse_and(toks):
    left = _parse_unary(toks)
    while True:
        tok, _ = toks.peek()
        if tok == "&":
            toks.next()
            left = And(left, _parse_unary(toks))
        else:
            return left


def _parse_unary(toks):
    tok, pos = toks.peek()
    if tok is None:
        raise FormulaSyntaxError("unexpected end of formula", pos)
    if tok == "~":
        toks.next()
        return Not(_parse_unary(toks))
    if tok in _RESERVED:
        toks.next()
        var, vpos = toks.next()
        if var is None or not (var[0].isalpha() or var[0] == "_") or var in _RESERVED:
            raise FormulaSyntaxError("expected a variable name after quantifier", vpos)
        sub = _parse_unary(toks)
        return Exists(var, sub) if tok == "E" else Forall(var, sub)
    if tok == "(":
        # may be a parenthesized formula or a parenthesized polynomial term
        save = toks.pos
        toks.next()
        try:
            inner = _parse_formula(toks)
            tok2, pos2 = toks.next()
            if tok2 != ")":
                raise FormulaSyntaxError("expected ')'", pos2)
            return inner
        except FormulaSyntaxError:
            toks.pos = save
            return _parse_atom(toks)
    return _parse_atom(toks)


def _parse_atom(toks):
    left = _parse_sum(toks)
    tok, pos = toks.next()
    if tok == "=":
        return Eq(left, _parse_sum(toks))
    if tok == "!":
        tok2, pos2 = toks.next()
        if tok2 != "=":
            raise FormulaSyntaxError("expected '=' after '!'", pos2)
        return Neq(left, _parse_sum(toks))
    raise FormulaSyntaxError("expected '=' or '!=' after polynomial", pos)


# -- prenex normal form ----------------------------------------------------------

def to_prenex(f: Formula) -> Formula:
    """Q1 x1 ... Qm xm [matrix in disjunctive normal form]."""
    prefix, matrix = _pull_quantifiers(_nnf(f.body))
    matrix = _to_dnf(matrix)
    for kind, var in reversed(prefix):
        matrix = kind(var, matrix)
    return Formula(matrix, base_params=f.base_params, free_vars=f.free_vars)


def _nnf(node, negate=False):
    """Negation normal form; `a -> b` becomes `~a | b`."""
    if isinstance(node, Eq):
        return Neq(node.left, node.right) if negate else node
    if isinstance(node, Neq):
        return Eq(node.left, node.right) if negate else node
    if isinstance(node, Not):
        return _nnf(node.sub, not negate)
    if isinstance(node, And):
        cls = Or if negate else And
        return cls(_nnf(node.left, negate), _nnf(node.right, negate))
    if isinstance(node, Or):
        cls = And if negate else Or
        return cls(_nnf(node.left, negate), _nnf(node.right, negate))
    if isinstance(node, Implies):
        cls = And if negate else Or
        return cls(_nnf(node.left, not negate), _nnf(node.right, negate))
    if isinstance(node, Exists):
        cls = Forall if negate else Exists
        return cls(node.var, _nnf(node.sub, negate))
    if isinstance(node, Forall):
        cls = Exists if negate else Forall
        return cls(node.var, _nnf(node.sub, negate))
    raise TypeError(node)


def _pull_quantifiers(node):
    """Prefix and matrix of an NNF body.  Binders are standardized apart, so
    no quantifier moves over a free occurrence of its variable."""
    if isinstance(node, (Eq, Neq)):
        return [], node
    if isinstance(node, (Exists, Forall)):
        prefix, matrix = _pull_quantifiers(node.sub)
        return [(type(node), node.var)] + prefix, matrix
    if isinstance(node, (And, Or)):
        pl, ml = _pull_quantifiers(node.left)
        pr, mr = _pull_quantifiers(node.right)
        return pl + pr, type(node)(ml, mr)
    raise TypeError(node)


def _to_dnf(node):
    """Distribute And over Or on a quantifier-free NNF matrix."""
    if isinstance(node, (Eq, Neq)):
        return node
    if isinstance(node, Or):
        return Or(_to_dnf(node.left), _to_dnf(node.right))
    if isinstance(node, And):
        left = _to_dnf(node.left)
        right = _to_dnf(node.right)
        if isinstance(left, Or):
            return Or(_to_dnf(And(left.left, right)), _to_dnf(And(left.right, right)))
        if isinstance(right, Or):
            return Or(_to_dnf(And(left, right.left)), _to_dnf(And(left, right.right)))
        return And(left, right)
    raise TypeError(node)


# -- evaluation --------------------------------------------------------------------

class DefinableSet:
    """Z(phi, x, F_q): the tuples of field elements satisfying phi."""

    def __init__(self, field, s_point, free_vars, tuples):
        self.field = field
        self.s_point = dict(s_point)
        self.free_vars = tuple(free_vars)
        self.tuples = frozenset(tuple(t) for t in tuples)
        for t in self.tuples:
            if len(t) != len(self.free_vars):
                raise VariableMismatch("tuple arity mismatch")

    def __len__(self):
        return len(self.tuples)

    def __contains__(self, t):
        return tuple(t) in self.tuples

    def __eq__(self, other):
        return (isinstance(other, DefinableSet)
                and self.free_vars == other.free_vars
                and self.tuples == other.tuples)

    def __hash__(self):
        return hash((self.free_vars, self.tuples))

    def sorted_tuples(self):
        return sorted(self.tuples)

    def is_true_sentence(self):
        return self.free_vars == () and len(self.tuples) == 1

    def __repr__(self):
        return f"DefinableSet({self.free_vars}, {len(self.tuples)} tuples over {self.field})"


def _compile_node(node, k):
    if isinstance(node, (Eq, Neq)):
        left, right = node.left.compile(k), node.right.compile(k)
        if isinstance(node, Eq):
            return lambda env: left(env) == right(env)
        return lambda env: left(env) != right(env)
    if isinstance(node, (And, Or, Implies)):
        left, right = _compile_node(node.left, k), _compile_node(node.right, k)
        if isinstance(node, And):
            return lambda env: left(env) and right(env)
        if isinstance(node, Or):
            return lambda env: left(env) or right(env)
        return lambda env: (not left(env)) or right(env)
    if isinstance(node, Not):
        sub = _compile_node(node.sub, k)
        return lambda env: not sub(env)
    if isinstance(node, (Exists, Forall)):
        return _quantifier(node.var, _compile_node(node.sub, k), k.elements(),
                           witness=isinstance(node, Exists))
    raise TypeError(node)


def _quantifier(var, sub, elements, witness):
    """Exists (witness True) stops at the first value where sub holds,
    Forall (witness False) at the first where it fails."""
    def quantify(env):
        saved = env.get(var, _MISSING)
        result = not witness
        for v in elements:
            env[var] = v
            if sub(env) == witness:
                result = witness
                break
        _restore(env, var, saved)
        return result
    return quantify


_MISSING = object()


def _restore(env, var, saved):
    if saved is _MISSING:
        env.pop(var, None)
    else:
        env[var] = saved


def holds_at(f: Formula, s_point, point, k: FiniteField) -> bool:
    """Truth of f at one free-variable tuple (no enumeration of free vars)."""
    env = k.embed_point(s_point)
    env.update(zip(f.free_vars, point))
    return f.compile(k)(env)


def fresh_conjunction(f: Formula, nonzero_poly) -> Formula:
    """f AND (poly != 0), keeping base parameters and free-variable order."""
    body = And(f.body, Neq(nonzero_poly, Poly.constant(0)))
    extra = [v for v in nonzero_poly.used_variables()
             if v not in f.free_vars and v not in f.base_params]
    return Formula(body, base_params=f.base_params,
                   free_vars=tuple(f.free_vars) + tuple(sorted(extra)))


def conjunction(f: Formula, g: Formula) -> Formula:
    """f AND g over merged free variables (f's order first)."""
    merged = tuple(f.free_vars) + tuple(v for v in g.free_vars if v not in f.free_vars)
    return Formula(And(f.body, g.body), base_params=f.base_params, free_vars=merged)


def substitute_formula(f: Formula, mapping) -> Formula:
    """Substitute base parameters (or free variables) by rational constants
    or polynomials; substituted names leave the parameter lists.  A value
    substituted into the body may use only the kept base parameters and
    free variables, which no binder shares a name with, so none is
    captured."""
    bound = sorted(_bound_vars(f.body) & set(mapping))
    if bound:
        raise VariableMismatch(f"cannot substitute bound variable {bound[0]}")
    base = tuple(p for p in f.base_params if p not in mapping)
    free = tuple(v for v in f.free_vars if v not in mapping)
    occurring = set(_free_vars_node(f.body))
    for name, value in mapping.items():
        if name in occurring and isinstance(value, Poly):
            undeclared = value.used_variables() - set(base) - set(free)
            if undeclared:
                raise VariableMismatch(
                    f"free occurrence of {sorted(undeclared)} not declared")
    return Formula(_substitute(f.body, mapping), base_params=base, free_vars=free)


def _base_env(f: Formula, s_point, k: FiniteField, budget):
    """The environment of the base point, after eval_formula's checks of
    its input: every base parameter given, the search within the budget."""
    for name in f.base_params:
        if name not in s_point:
            raise VariableMismatch(f"s_point missing base parameter {name!r}")
    check_budget(len(f.free_vars) + f.quantifier_depth(), k, budget)
    return k.embed_point(s_point)


def eval_formula(f: Formula, s_point, k: FiniteField,
                 budget: float = DEFAULT_BUDGET) -> DefinableSet:
    env = _base_env(f, s_point, k, budget)
    m = len(f.free_vars)
    plan = f.solve_plan(k)
    if plan is not None:
        return DefinableSet(k, s_point, f.free_vars, _solve(plan, f.free_vars, env, k.q))
    pred = f.compile(k)
    tuples = []
    for point in itertools.product(range(k.q), repeat=m):
        env.update(zip(f.free_vars, point))
        if pred(env):
            tuples.append(point)
    return DefinableSet(k, s_point, f.free_vars, tuples)


# -- solving linear atoms ----------------------------------------------------------------

def _conjunct_count(node):
    """Number of conjuncts in the DNF of an NNF matrix, without building it."""
    if isinstance(node, Or):
        return _conjunct_count(node.left) + _conjunct_count(node.right)
    if isinstance(node, And):
        return _conjunct_count(node.left) * _conjunct_count(node.right)
    return 1


def _atoms(node):
    """The atoms of an And/Or tree, left to right."""
    if isinstance(node, (And, Or)):
        return _atoms(node.left) + _atoms(node.right)
    return [node]


def _disjuncts(node):
    if isinstance(node, Or):
        return _disjuncts(node.left) + _disjuncts(node.right)
    return [node]


def _solve_plan(f: Formula, k: FiniteField):
    prefix, matrix = _pull_quantifiers(_nnf(f.body))
    # The budget charges q^n tuples, n = free variables + quantifier depth.
    # With fewer than q conjuncts, each enumerating fewer than n variables,
    # solving enumerates fewer than conjuncts * q^(n-1) < q^n tuples.  The
    # prefix alone can be longer than the depth: sibling binders under `&`
    # are pulled into one block, but the scan runs them one after another.
    if any(kind is not Exists for kind, _ in prefix) or _conjunct_count(matrix) >= k.q:
        return None
    # The scan raises DenominatorNotInvertible exactly where it reaches such
    # an atom, which solving could not reproduce.
    if any(c.denominator % k.p == 0 for atom in _atoms(matrix)
           for poly in (atom.left, atom.right) for c in poly.terms.values()):
        return None
    names = tuple(f.free_vars) + tuple(var for _, var in prefix)
    charged = len(f.free_vars) + f.quantifier_depth()
    plan = []
    for conjunct in _disjuncts(_to_dnf(matrix)):
        step = _solve_step(_atoms(conjunct), names, f.free_vars, k)
        if step is None or len(step[0]) >= charged:
            return None
        plan.append(step)
    return plan


def _solve_step(atoms, names, free_vars, k):
    """Solve the first equation of the conjunct that is linear in one of
    `names` (the first such name) with a coefficient nonzero mod p.  The
    step enumerates the free variables and the bound names that the solved
    value or the other atoms use; a bound name used by neither does not
    change the projection."""
    diffs = [(atom.left - atom.right, isinstance(atom, Eq)) for atom in atoms]
    for i, (d, is_eq) in enumerate(diffs):
        if not is_eq:
            continue
        for v in names:
            split = _linear_split(d, v)
            if split is None or split[0].numerator % k.p == 0:
                continue
            c, rest = split
            value = rest * (-1 / c)
            others = diffs[:i] + diffs[i + 1:]
            used = value.used_variables().union(*(g.used_variables() for g, _ in others))
            enumerated = tuple(u for u in names if u != v and (u in free_vars or u in used))
            return enumerated, v, value.compile(k), [(g.compile(k), eq) for g, eq in others]
    return None


def _linear_split(d: Poly, v):
    """(c, rest) with d = c*v + rest, c a rational constant and v not in rest;
    None if d has no such form."""
    if v not in d.variables:
        return None
    i = d.variables.index(v)
    c, rest = None, {}
    for expo, coef in d.terms.items():
        if not expo[i]:
            rest[expo] = coef
        elif expo[i] == 1 and sum(expo) == 1:
            c = coef
        else:
            return None
    return None if c is None else (c, Poly(d.variables, rest))


def _solve(plan, free_vars, env, q):
    """The union over conjuncts of the projections onto free_vars."""
    found = set()
    for names, var, value, checks in plan:
        for point in itertools.product(range(q), repeat=len(names)):
            env.update(zip(names, point))
            env[var] = value(env)
            for g, eq in checks:
                if (g(env) == 0) != eq:
                    break
            else:
                found.add(tuple([env[u] for u in free_vars]))
    return found


# -- definable bijections -------------------------------------------------------------

class BijectionVerdict:
    def __init__(self, passed, witness=None, fibers=None):
        self.passed = passed
        self.witness = witness
        self.fibers = fibers or []

    def __bool__(self):
        return self.passed

    def __repr__(self):
        return "Pass" if self.passed else f"Fail(witness={self.witness})"


def _check_graph(zpsi, z1, z2, n1):
    """Does zpsi cut out the graph of a bijection z1 -> z2?

    Following the intended reading of the defining relation, only the pairs
    with both halves in the respective definable sets count: the relation
    checked is Z(psi) restricted to Z(phi1) x Z(phi2).  Returns an offending
    tuple, or None on success.
    """
    seen_left = {}
    seen_right = {}
    for t in sorted(zpsi.tuples):
        a, b = t[:n1], t[n1:]
        if a not in z1.tuples or b not in z2.tuples:
            continue
        if a in seen_left or b in seen_right:
            return t
        seen_left[a] = b
        seen_right[b] = a
    if len(seen_left) != len(z1) or len(seen_right) != len(z2):
        missing = sorted(set(z1.tuples) - set(seen_left))
        if missing:
            return missing[0] + ("unmatched-left",)
        return sorted(set(z2.tuples) - set(seen_right))[0] + ("unmatched-right",)
    return None


def bijection_fiber_report(psi: Formula, phi1: Formula, phi2: Formula,
                           pairs, budget: float = DEFAULT_BUDGET):
    """One verdict per (field, s_point) pair; the generic-vs-closed-fiber harness."""
    if set(psi.free_vars) != set(phi1.free_vars) | set(phi2.free_vars) \
            or set(phi1.free_vars) & set(phi2.free_vars):
        raise VariableMismatch(
            "free vars of psi must be the disjoint union of those of phi1 and phi2")
    order = tuple(phi1.free_vars) + tuple(phi2.free_vars)
    psi_ordered = Formula(psi.body, base_params=psi.base_params, free_vars=order)
    formulas = (psi_ordered, phi1, phi2)
    # A body that uses no base parameter has the same set in every fiber.
    fixed = [set(_free_vars_node(g.body)).isdisjoint(g.base_params) for g in formulas]
    once = {}  # (field, i) -> the set over that field of the fixed formula i
    report = []
    for k, s_point in pairs:
        sets = []
        for i, g in enumerate(formulas):
            z = once.get((k, i))
            if z is None:
                z = eval_formula(g, s_point, k, budget)
                if fixed[i]:
                    once[k, i] = z
            else:  # the checks eval_formula makes of its input
                _base_env(g, s_point, k, budget)
            sets.append(z)
        zpsi, z1, z2 = sets
        bad = _check_graph(zpsi, z1, z2, len(phi1.free_vars))
        report.append({
            "field": k,
            "s_point": dict(s_point),
            "passed": bad is None,
            "witness": bad,
            "sizes": (len(z1), len(z2), len(zpsi)),
        })
    return report


def check_definable_bijection(psi, phi1, phi2, fields, s_points,
                              budget: float = DEFAULT_BUDGET) -> BijectionVerdict:
    pairs = [(k, s_point) for k in fields for s_point in s_points]
    report = bijection_fiber_report(psi, phi1, phi2, pairs, budget)
    for entry in report:
        if not entry["passed"]:
            return BijectionVerdict(False,
                                    witness=(entry["field"], entry["s_point"], entry["witness"]),
                                    fibers=report)
    return BijectionVerdict(True, fibers=report)
