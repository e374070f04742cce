"""The oracles' independence, and discovery against the planted-algebra oracle."""

import ast
import pathlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from subrec import KrausChannel, UnluckySeed, enumerate_noiseless, find_ucc

import oracles
from oracles import dag, kraus_apply, planted_algebra


def test_oracles_import_nothing_from_the_library():
    # an oracle that called the library's kernels would check them against
    # themselves
    tree = ast.parse(pathlib.Path(oracles.__file__).read_text(encoding="utf-8"))
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names]
    modules += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert modules and not [m for m in modules if m.split(".")[0] == "subrec"]


def _expected(blocks):
    """find_ucc's subsystems and classical sectors, and enumerate_noiseless's
    blocks of Fix, for the interaction algebra ⊕ M_μ (x) I_ν."""
    return (sorted(b for b in blocks if b[1] > 1),
            sorted((1, mu) for mu, nu in blocks if nu == 1),
            sorted((nu, mu) for mu, nu in blocks))


def _ucc_blocks(ch):
    report = find_ucc(ch, seed=0)
    return (sorted((s.decomposition.d_a, s.decomposition.d_b) for s in report.subsystems),
            sorted(report.classical_sectors), report)


PLANTED = [[(2, 2), (1, 3), (3, 1), (2, 2)], [(1, 4), (1, 4), (2, 1), (3, 3)],
           [(4, 2), (1, 1), (1, 1), (2, 5)], [(5, 1), (2, 3)], [(6, 2), (1, 5), (1, 1)]]


@pytest.mark.parametrize("m", [3, 4])
@pytest.mark.parametrize("blocks", PLANTED, ids=str)
def test_discovery_finds_the_planted_algebra(blocks, m):
    # repeated μ, μ = 1 blocks with ν > 1, ν = 1 sectors and a μ = 6 block
    ch = KrausChannel(planted_algebra(blocks, m, seed=0))
    subsystems, sectors, fix_blocks = _expected(blocks)
    got, got_sectors, report = _ucc_blocks(ch)
    assert (got, got_sectors, report.contradictions) == (subsystems, sectors, [])
    assert all(s.residual <= 1e-10 for s in report.subsystems)
    assert sorted(enumerate_noiseless(ch, seed=0).structure.blocks) == fix_blocks


BLOCK_LISTS = st.lists(st.tuples(st.integers(1, 8), st.integers(1, 4)), min_size=2,
                       max_size=6).filter(lambda b: sum(mu * nu for mu, nu in b) <= 64)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(blocks=BLOCK_LISTS, m=st.sampled_from([3, 4]), seed=st.integers(0, 2 ** 16))
@example(blocks=[(2, 2), (2, 2), (1, 3), (1, 1)], m=3, seed=0)
@example(blocks=[(6, 1), (1, 4), (3, 2)], m=4, seed=1)
def test_discovery_reports_the_planted_list_or_says_why_not(blocks, m, seed):
    kraus = planted_algebra(blocks, m, seed)
    d = sum(mu * nu for mu, nu in blocks)
    # the generator plants a unital channel
    assert np.linalg.norm(sum(dag(k) @ k for k in kraus) - np.eye(d)) < 1e-10
    assert np.linalg.norm(kraus_apply(kraus, np.eye(d)) - np.eye(d)) < 1e-10
    ch = KrausChannel(kraus)
    subsystems, sectors, fix_blocks = _expected(blocks)
    # either may give up with UnluckySeed; neither may report another list
    # without a contradiction
    try:
        got, got_sectors, report = _ucc_blocks(ch)
    except UnluckySeed:
        pass
    else:
        assert (got, got_sectors) == (subsystems, sectors) or report.contradictions
    try:
        structure = enumerate_noiseless(ch, seed=0).structure
    except UnluckySeed:
        pass
    else:
        assert sorted(structure.blocks) == fix_blocks
