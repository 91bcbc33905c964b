"""The covers each construction emits, against the transitive reduction of
the order it is defined by.

Each construction builds its Hasse diagram one step at a time.  The
referee here is the definition of each order, transcribed and reduced by
:func:`transitive_reduction`: layer containment read through phases,
the pair order of a geometric poset's scheme, and the orbit order of a
quotient.  Covers must match in row-major index order, the order every
scheme and poset document lists them in.
"""

import itertools

from mscheme import (
    dowling_geometric,
    files,
    flats,
    layers_poset,
    quotient_scheme,
    scheme_from_geometric,
    trivial_action,
    tutte_direct,
    validate_geometric,
)
from mscheme.geometric import pair_id
from generators import dowling_inputs
from referees import transitive_reduction


def _reduced(ids, leq):
    """Cover pairs of the order ``leq`` on ``ids``, by transitive reduction."""
    up = [sum(1 << j for j, b in enumerate(ids) if j != i and leq(a, b))
          for i, a in enumerate(ids)]
    return [(ids[i], ids[j]) for i, j in transitive_reduction(up)]


def _contains(big, small):
    """Point-set containment of layers: every basis row of ``big`` lies in
    the lattice of ``small`` with the matching phase."""
    return all(small.phase_of(row) == ph for row, ph in zip(big.basis, big.phases))


def test_layer_covers_are_containment_covers(corpus):
    assert any(label == "arr3_n3" for label, _ in corpus.arrangements)
    for label, arr in corpus.arrangements:
        result = layers_poset(arr)
        p = result.geometric.poset
        assert list(p.elements) == list(result.layers), label
        want = _reduced(p.elements, lambda a, b: _contains(result.layers[a],
                                                           result.layers[b]))
        assert list(p.covers) == want, label


def _geometric_pairs(gp):
    """id -> (I, x) for every atom set I and every x minimal above I, in the
    enumeration order of the scheme's elements."""
    p = gp.poset
    atoms = gp.atoms()
    below = {x: {a for a in atoms if p.leq(a, x)} for x in p.elements}
    pairs = {}
    for x in p.elements:
        strict = [y for y in p.elements if y != x and p.leq(y, x)]
        for size in range(len(below[x]) + 1):
            for combo in itertools.combinations(sorted(below[x], key=p.idx), size):
                if not any(set(combo) <= below[y] for y in strict):
                    pairs[pair_id(combo, x)] = (frozenset(combo), x)
    return pairs


def _check_pair_covers(gp, name):
    m = scheme_from_geometric(gp)
    pairs = _geometric_pairs(gp)
    assert list(m.elements) == list(pairs), name
    p = gp.poset

    def leq(a, b):
        (i, x), (j, y) = pairs[a], pairs[b]
        return i <= j and p.leq(x, y)

    assert list(m.poset.covers) == _reduced(m.elements, leq), name


def test_geometric_pair_covers_are_pair_order_covers(corpus):
    for name, m in corpus.schemes():
        _check_pair_covers(validate_geometric(flats(m)), name)
    for label, n, act in dowling_inputs():
        _check_pair_covers(dowling_geometric(n, act), label)


def test_quotient_covers_are_orbit_order_covers():
    """The orbit order's covers, and the quotient's Tutte polynomial against
    the group-action Tutte polynomial."""
    grp = files.load_group(files.resolve_input("z2.json"))
    sm4 = files.load_semimatroid(files.resolve_input("semi4.json"))
    sm4c = files.load_semimatroid(files.resolve_input("semi4c.json"))
    cases = [
        ("semi4_swap", sm4, files.load_action(files.resolve_input("z2_swap.json"), grp)),
        ("semi4_trivial", sm4, trivial_action(grp, sm4.vertices)),
        ("semi4c_swap", sm4c, files.load_action(files.resolve_input("z2_swap_c.json"), grp)),
    ]
    for name, sm, action in cases:
        result = quotient_scheme(sm, action)
        orbits = {}
        for face, orbit in result.orbit_of.items():
            orbits.setdefault(orbit, []).append(face)
        rep = {orbit: min(faces, key=sorted) for orbit, faces in orbits.items()}

        def leq(a, b):
            return any(frozenset(action(g, v) for v in rep[a]) <= rep[b]
                       for g in action.group.elements)

        m = result.scheme
        assert list(m.poset.covers) == _reduced(m.elements, leq), name
        assert tutte_direct(m) == result.tutte_action, name
