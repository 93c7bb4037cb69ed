import pytest

from coxclusters import (
    Weight,
    all_coxeter_elements,
    bipartite_element,
    cartan_from_label,
    cartan_from_text,
    coxeter_element,
    principal_seed,
    universal_seed,
)
from coxclusters.algebra import Seed, extended_columns


def indecomposable_types(max_rank):
    """(letter, rank) for every indecomposable finite type up to max_rank."""
    out = []
    bounds = {"A": (1, 8), "B": (2, 8), "C": (3, 8), "D": (4, 8), "E": (6, 8), "F": (4, 4), "G": (2, 2)}
    for letter, (lo, hi) in bounds.items():
        for rank in range(lo, min(hi, max_rank) + 1):
            out.append((letter, rank))
    return out


# A1-A5, B2-B5, C3-C5, D4, D5, G2, F4, two direct sums and E6-E8: the types
# on which the reflection kernel's results are compared with reference copies
# of the code it replaced.
REFERENCE_TYPES = (
    [f"{x}{r}" for x, lo in (("A", 1), ("B", 2), ("C", 3)) for r in range(lo, 6)]
    + ["D4", "D5", "G2", "F4", "A2xA1", "B2xG2", "E6", "E7", "E8"]
)


def fundamental_weight(n, i):
    """omega_i in fundamental-weight coordinates."""
    return Weight(tuple(int(k == i) for k in range(n)))


def weight_difference(v, w):
    """v - w, coordinate by coordinate."""
    return Weight(tuple(x - y for x, y in zip(v.g, w.g)))


def weyl_degrees(letter, rank):
    """Degrees of the basic invariants of the Weyl group; the largest is h."""
    if letter == "A":
        return list(range(2, rank + 2))
    if letter in "BC":
        return list(range(2, 2 * rank + 1, 2))
    if letter == "D":
        return list(range(2, 2 * rank - 1, 2)) + [rank]
    return {
        ("E", 6): [2, 5, 6, 8, 9, 12],
        ("E", 7): [2, 6, 8, 10, 12, 14, 18],
        ("E", 8): [2, 8, 12, 14, 18, 20, 24, 30],
        ("F", 4): [2, 6, 8, 12],
        ("G", 2): [2, 6],
    }[letter, rank]


@pytest.fixture(autouse=True)
def _no_cap_env(monkeypatch):
    """Keep a COXCLUSTERS_CAP exported by the caller's shell out of every test."""
    monkeypatch.delenv("COXCLUSTERS_CAP", raising=False)


@pytest.fixture
def a2():
    return cartan_from_label("A", 2)


@pytest.fixture
def a3():
    return cartan_from_label("A", 3)


def exchange_graph_instances():
    """Seeds whose whole exchange graph tests compare: principal and universal
    seeds of every orientation of A3, B3, G2 and A2xA1, and of bipartite D4
    and F4; the universal seed of bipartite D5; the principal seed of
    bipartite E6.  Each name is "<principal|universal> <type> <word>"."""
    out = []
    for spec in ("A3", "B3", "G2", "A2xA1", "D4", "F4"):
        m = cartan_from_text(spec)
        bipartite_only = spec in ("D4", "F4")
        for c in (bipartite_element(m),) if bipartite_only else all_coxeter_elements(m):
            word = ",".join(str(i + 1) for i in c.order)
            out += [f"{kind} {spec} {word}" for kind in ("principal", "universal")]
    return out + ["universal D5 1,3,2,4,5", "principal E6 1,4,2,3,6,5"]


def instance_element(name):
    """The Cartan matrix and Coxeter element of an instance name."""
    _, spec, word = name.split()
    m = cartan_from_text(spec)
    return m, coxeter_element(m, [int(x) - 1 for x in word.split(",")])


def instance_seed(name):
    """The start seed named by an entry of :func:`exchange_graph_instances`."""
    make = {"principal": principal_seed, "universal": universal_seed}[name.split()[0]]
    return make(*instance_element(name))


def permuted_seed(seed, perm):
    """``seed`` with slot t holding what slot ``perm[t]`` held: the cluster,
    the c-vectors, and the rows and columns of B, moved explicitly."""
    return Seed(
        ring=seed.ring,
        cluster=tuple(seed.cluster[t] for t in perm),
        columns=extended_columns(
            tuple(tuple(seed.B[a][b] for b in perm) for a in perm),
            tuple(seed.coeffs[t] for t in perm),
        ),
    )


def step_instances():
    """Principal and universal seeds of every orientation of A3, B3, C3, G2
    and A2xA1, and the principal seed of bipartite E6, named as in
    :func:`instance_seed`."""
    out = []
    for spec in ("A3", "B3", "C3", "G2", "A2xA1"):
        for c in all_coxeter_elements(cartan_from_text(spec)):
            word = ",".join(str(i + 1) for i in c.order)
            out += [f"{kind} {spec} {word}" for kind in ("principal", "universal")]
    word = ",".join(str(i + 1) for i in bipartite_element(cartan_from_text("E6")).order)
    return out + [f"principal E6 {word}"]


def evaluate(p, values, ring):
    """Substitute one Laurent polynomial of ``ring`` per slot of ``p``, by
    products and powers.  Negative exponents are only legal on slots whose
    value is a unit monomial."""
    total = ring.zero()
    for exps, coef in p.terms.items():
        term = ring.monomial((0,) * ring.nvars, coef)
        for e, val in zip(exps, values):
            if e:
                term = term * val ** e
        total = total + term
    return total
