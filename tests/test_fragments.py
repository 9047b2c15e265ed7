import random

import pytest

from demod.fragments import (
    DEFAULT_TEMPLATE,
    FZ_LIBRARY,
    HHA_LIBRARY,
    fz_fragment,
    hha_fragment,
)
from demod.hilbert import Template
from demod.nd import check_nd, nd_length, witness_all
from demod.syntax import And, Exists, Forall, Imp, Or, Var, arith
from demod.theories import (
    OrderConfig,
    ZERO,
    build_HHA,
    build_HO,
    eq,
    fz_axioms,
    mem,
    plus,
    s_,
    times,
    var0,
)

CFG = OrderConfig(1)
HO = build_HO(CFG)
HHA = build_HHA(CFG)
FZ = dict(fz_axioms().axioms)

# pinned inference counts, from transcribing the displayed trees (FZ side)
FZ_LENGTHS = {"leibniz": 1, "ind": 1, "comp^0": 5}

# pinned inference counts for the axiom-free side; refl/leibniz-ax/0!=s/inj-s/
# onto-s/ind/comp transcribe displayed trees, the arithmetic ones are ours
HHA_LENGTHS = {
    "refl": 3,
    "leibniz-ax": 5,
    "zero-ne-s": 5,
    "inj-s": 7,
    "onto-s": 14,
    "ind": 5,
    "comp^0": 5,
    "leibniz": 6,
    "plus-zero": 11,
    "plus-s": 12,
    "times-zero": 11,
}


def test_fz_fragments_check_and_lengths():
    for name in FZ_LIBRARY:
        frag = fz_fragment(name)
        verdict = check_nd(frag.proof, assumptions=FZ, system=HO)
        assert verdict.ok, f"{name}: {verdict.error}"
        assert verdict.length == FZ_LENGTHS[name], name
        assert set(frag.assumptions) <= set(FZ)


def test_hha_fragments_check_and_lengths():
    for name in HHA_LIBRARY:
        frag = hha_fragment(name)
        verdict = check_nd(frag.proof, system=HHA, mode="mixed")
        assert verdict.ok, f"{name}: {verdict.error}"
        if name in HHA_LENGTHS:
            assert verdict.length == HHA_LENGTHS[name], (name, verdict.length)
        assert frag.assumptions == ()


def test_times_s_checks():
    frag = hha_fragment("times-s")
    verdict = check_nd(frag.proof, system=HHA, mode="mixed")
    assert verdict.ok, verdict.error
    # a large but fixed tree
    assert verdict.length > 100


def test_fragment_conclusions():
    a = var0("a")
    b = var0("b")
    got = hha_fragment("zero-ne-s").conclusion
    from demod.syntax import alpha_equal, neg

    assert alpha_equal(got, Forall(a, neg(eq(ZERO, s_(a)))))
    got = hha_fragment("plus-s").conclusion
    assert alpha_equal(got, Forall(a, Forall(b, eq(plus(a, s_(b)), s_(plus(a, b))))))
    got = hha_fragment("times-s").conclusion
    assert alpha_equal(got, Forall(a, Forall(b, eq(times(a, s_(b)), plus(times(a, b), a)))))


def _random_template(rng: random.Random, sort_level: int = 0) -> Template:
    hole = Var("hole", arith(sort_level))
    free = var0("m")

    def go(depth):
        if depth <= 0:
            choices = [eq(hole, ZERO) if sort_level == 0 else eq(ZERO, ZERO)]
            if sort_level == 0:
                choices += [eq(s_(hole), free), eq(plus(hole, hole), hole)]
            else:
                choices += [mem(0, ZERO, hole) if sort_level == 1 else eq(ZERO, ZERO)]
            return rng.choice(choices)
        pick = rng.randrange(4)
        if pick == 0:
            return And(go(depth - 1), go(depth - 1))
        if pick == 1:
            return Or(go(depth - 1), go(depth - 1))
        if pick == 2:
            return Imp(go(depth - 1), go(depth - 1))
        v = Var(f"q{depth}", arith(0))
        return Forall(v, go(depth - 1))

    return Template((hole,), go(rng.randrange(0, 3)))


def test_fragment_length_constancy():
    rng = random.Random(7)
    for name in ("leibniz", "ind"):
        lengths = set()
        for _ in range(25):
            tmpl = _random_template(rng)
            frag = hha_fragment(name, tmpl)
            v = check_nd(frag.proof, system=HHA, mode="mixed")
            assert v.ok, f"{name}: {v.error}"
            lengths.add(v.length)
        assert len(lengths) == 1, (name, lengths)
    lengths = set()
    for _ in range(25):
        tmpl = _random_template(rng)
        frag = fz_fragment("comp^0", tmpl)
        v = check_nd(frag.proof, assumptions=FZ, system=HO)
        assert v.ok, v.error
        lengths.add(v.length)
    assert lengths == {5}


def test_witnessed_ind_fragment():
    frag = hha_fragment("ind")
    witnessed = witness_all(frag.proof, HHA)
    verdict = check_nd(witnessed, system=HHA, mode="witnessed")
    assert verdict.ok, verdict.error
    assert verdict.length == nd_length(frag.proof)


def test_comp_fragment_higher_sort():
    cfg2 = OrderConfig(2)
    hha2 = build_HHA(cfg2)
    hole = Var("hole", arith(1))
    tmpl = Template((hole,), mem(0, ZERO, hole))
    frag = hha_fragment("comp^1", tmpl)
    v = check_nd(frag.proof, system=hha2, mode="mixed")
    assert v.ok, v.error
    ho2 = build_HO(cfg2)
    frag2 = fz_fragment("comp^1", tmpl)
    v2 = check_nd(frag2.proof, assumptions=FZ, system=ho2)
    assert v2.ok, v2.error


@pytest.mark.parametrize("name", ["comp^01", "comp^ 1", "comp^١", "comp^+1", "comp^1_0"])
def test_fragment_levels_are_written_as_sorts_are(name):
    # int() reads each of these as a level; none is one as a sort is written
    hole = Var("hole", arith(1))
    with pytest.raises(KeyError, match="no HHA fragment named"):
        hha_fragment(name, Template((hole,), mem(0, ZERO, hole)))
    with pytest.raises(KeyError, match="no FZ fragment named"):
        fz_fragment(name, Template((hole,), mem(0, ZERO, hole)))
