import ast
import dataclasses
import inspect
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import random_fraction, reference_deck_table

from nonhaus import symmetry
from nonhaus.errors import NonHausError
from nonhaus.lifting import LiftsEnumerated, NoLift, PLPath, attempt_homotopy_lift
from nonhaus.projection import project
from nonhaus.space import Origin, Regular, SpaceConfig, TopologyModel, pseudo_dist
from nonhaus.symmetry import (
    DeckElement,
    LabeledLoop,
    Word,
    contract_loop,
    crossing_word,
    deck_apply,
    deck_group,
    deck_rigidity,
    loop_class,
    probe_loop,
    recheck_contraction,
    recheck_deck_group,
    reduce_word,
)


class TestDeckElement:
    def test_apply(self):
        swap = DeckElement((2, 1))
        assert deck_apply(swap, Origin(1)) == Origin(2)
        assert deck_apply(swap, Regular(5)) == Regular(5)

    def test_identity_fixes_everything(self):
        e = DeckElement.identity(3)
        for p in (Origin(1), Origin(3), Regular(-2)):
            assert deck_apply(e, p) == p

    def test_non_bijection_rejected(self):
        with pytest.raises(NonHausError, match=r"\(1, 1\) is not a permutation of 1\.\.2"):
            DeckElement((1, 1))

    def test_three_cycle_order(self):
        g = DeckElement((2, 3, 1))
        assert g.compose(g).compose(g) == DeckElement.identity(3)

    def test_inverse(self):
        g = DeckElement((3, 1, 2))
        assert g.compose(g.inverse()) == DeckElement.identity(3)

    @given(st.permutations(list(range(1, 5))))
    def test_projection_equivariance(self, images):
        g = DeckElement(tuple(images))
        for p in [Origin(i) for i in range(1, 5)] + [Regular(3), Regular(Fraction(-1, 7))]:
            assert project(deck_apply(g, p)) == project(p)

    @given(st.permutations(list(range(1, 5))))
    def test_isometry(self, images):
        g = DeckElement(tuple(images))
        pts = [Origin(1), Origin(4), Regular(2), Regular(Fraction(-5, 3))]
        for p in pts:
            for q in pts:
                assert pseudo_dist(deck_apply(g, p), deck_apply(g, q)) == pseudo_dist(p, q)


class TestDeckGroup:
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_order_and_checks(self, k):
        table = deck_group(k)
        assert len(table.elements) == math.factorial(k)
        assert table.homomorphism_ok
        assert table.faithful_ok
        assert recheck_deck_group(table) == []

    def test_k2_abelian(self):
        assert deck_group(2).noncommuting_pair is None

    def test_k3_noncommuting_witness(self):
        table = deck_group(3)
        i, j = table.noncommuting_pair
        g, h = table.elements[i], table.elements[j]
        assert deck_apply(g.compose(h), Origin(1)) != deck_apply(h.compose(g), Origin(1)) or \
            g.compose(h) != h.compose(g)

    def test_k_out_of_range(self):
        with pytest.raises(NonHausError, match="supported for 2 <= k <= 6, got 1"):
            deck_group(1)
        with pytest.raises(NonHausError, match="supported for 2 <= k <= 6, got 7"):
            deck_group(7)

    def test_table_closed(self):
        table = deck_group(3)
        n = len(table.elements)
        assert all(0 <= entry < n for row in table.table for entry in row)

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_table_matches_reference(self, k):
        assert deck_group(k).table == reference_deck_table(k)

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_noncommuting_pair_is_first_in_row_major_order(self, k):
        elements = deck_group(k).elements
        first = next((i, j) for i, g in enumerate(elements) for j, h in enumerate(elements)
                     if g.compose(h) != h.compose(g))
        assert deck_group(k).noncommuting_pair == first

    def test_homomorphism_random_pairs(self):
        rng = random.Random(7)
        table = deck_group(5)
        samples = [Origin(i) for i in range(1, 6)] + [Regular(1), Regular(-1)]
        for _ in range(100):
            g = rng.choice(table.elements)
            h = rng.choice(table.elements)
            for p in samples:
                assert deck_apply(g, deck_apply(h, p)) == deck_apply(g.compose(h), p)

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_deck_group_runs_no_pointwise_check(self, monkeypatch, k):
        # the table is proved by its re-check alone, which composes by itemgetter
        def forbidden(*args):
            raise AssertionError("deck_group ran a pointwise check")

        monkeypatch.setattr(DeckElement, "compose", forbidden)
        monkeypatch.setattr(symmetry, "deck_apply", forbidden)
        table = deck_group(k)
        assert recheck_deck_group(table) == []

    @pytest.mark.parametrize(
        "flags",
        [{"homomorphism_ok": False}, {"faithful_ok": False},
         {"homomorphism_ok": False, "faithful_ok": False}],
        ids=["homomorphism", "faithful", "both"],
    )
    def test_unset_flag_fails_the_recheck(self, flags):
        table = dataclasses.replace(deck_group(3), **flags)
        assert recheck_deck_group(table) == ["recorded verification flags are not all set"]


def _with_cells(tbl, edits):
    """tbl with table cells replaced: edits maps (i, j) to the new index."""
    rows = [list(row) for row in tbl.table]
    for (i, j), value in edits.items():
        rows[i][j] = value
    return dataclasses.replace(tbl, table=tuple(map(tuple, rows)))


class TestRecheckDeckGroup:
    def test_every_single_cell_edit_is_named(self):
        tbl = deck_group(4)
        n = len(tbl.elements)
        for i in range(n):
            for j in range(n):
                wrong = (tbl.table[i][j] + 1 + (i * n + j) % (n - 1)) % n
                bad = _with_cells(tbl, {(i, j): wrong})
                assert recheck_deck_group(bad) == [f"composition table wrong at ({i}, {j})"]

    def test_first_wrong_cell_in_row_major_order(self):
        tbl = deck_group(4)
        bad = _with_cells(tbl, {(5, 2): tbl.table[5][3], (3, 20): tbl.table[3][21]})
        assert recheck_deck_group(bad) == ["composition table wrong at (3, 20)"]
        bad = _with_cells(tbl, {(7, 9): tbl.table[7][8], (7, 4): tbl.table[7][5]})
        assert recheck_deck_group(bad) == ["composition table wrong at (7, 4)"]

    def test_negative_cell_fails_the_range_check(self):
        tbl = deck_group(4)
        # -1 would wrap to the last element; row 23 column 0 holds index 23
        bad = _with_cells(tbl, {(23, 0): -1})
        assert recheck_deck_group(bad) == ["composition table is not 24 rows of 24 indices in 0..23"]

    @pytest.mark.parametrize("cell", [24, 10**6])
    def test_range_is_named_before_an_earlier_wrong_cell(self, cell):
        tbl = deck_group(4)
        bad = _with_cells(tbl, {(23, 0): cell, (1, 1): tbl.table[1][2]})
        assert recheck_deck_group(bad) == ["composition table is not 24 rows of 24 indices in 0..23"]

    @pytest.mark.parametrize(
        "reshape",
        [lambda t: t[:-1], lambda t: t + t[:1], lambda t: (t[0][:-1],) + t[1:],
         lambda t: t[:-1] + (t[-1] + (0,),)],
        ids=["row-missing", "row-extra", "cell-missing", "cell-extra"],
    )
    def test_table_of_the_wrong_shape(self, reshape):
        # zip(*table) would stop at the shortest row
        bad = dataclasses.replace(deck_group(3), table=reshape(deck_group(3).table))
        assert recheck_deck_group(bad) == ["composition table is not 6 rows of 6 indices in 0..5"]

    def test_every_wrong_index_of_every_k3_cell_is_named(self):
        tbl = deck_group(3)
        for i in range(6):
            for j in range(6):
                for wrong in set(range(6)) - {tbl.table[i][j]}:
                    bad = _with_cells(tbl, {(i, j): wrong})
                    assert recheck_deck_group(bad) == [f"composition table wrong at ({i}, {j})"]

    @pytest.mark.parametrize(
        "order, first",
        [((1, 0, 2, 3, 4, 5), (0, 0)), ((0, 1, 2, 3, 5, 4), (1, 2)), ((5, 4, 3, 2, 1, 0), (0, 0))],
        ids=["identity-moved", "last-two-swapped", "reversed"],
    )
    def test_reordered_elements_name_the_first_wrong_cell(self, order, first):
        # the table is kept, so it indexes the old order; the re-check finds
        # the identity by lookup, wherever the reordering put it
        tbl = deck_group(3)
        bad = dataclasses.replace(tbl, elements=tuple(tbl.elements[i] for i in order))
        elements = bad.elements
        expected = next((i, j) for i, g in enumerate(elements) for j, h in enumerate(elements)
                        if elements[tbl.table[i][j]] != g.compose(h))
        assert expected == first
        assert recheck_deck_group(bad) == [f"composition table wrong at {first}"]

    def test_k6_last_cell_and_identity_column(self):
        tbl = deck_group(6)
        assert recheck_deck_group(tbl) == []
        bad = _with_cells(tbl, {(719, 719): tbl.table[719][718]})
        assert recheck_deck_group(bad) == ["composition table wrong at (719, 719)"]
        # column 0 is the identity's: row i there holds i
        bad = _with_cells(tbl, {(500, 0): 499})
        assert recheck_deck_group(bad) == ["composition table wrong at (500, 0)"]

    def test_recheck_shares_no_code_with_the_producer(self):
        """The re-check names neither deck_group nor any package code that deck_group uses."""
        tree = ast.parse(inspect.getsource(symmetry))
        body = {f.name: f.body for f in tree.body if isinstance(f, ast.FunctionDef)}

        def names(name):
            return {n.id if isinstance(n, ast.Name) else n.attr
                    for stmt in body[name] for n in ast.walk(stmt)
                    if isinstance(n, (ast.Name, ast.Attribute))}

        used = {name for name in names("deck_group")
                if callable(obj := getattr(symmetry, name, None))
                and obj.__module__.startswith("nonhaus.")}
        assert used == {"DeckElement", "DeckGroupTable", "NonHausError"}
        assert not (used | {"deck_group"}) & names("recheck_deck_group")

    def test_noncommuting_pair_for_abelian_k(self):
        tbl = deck_group(2)
        bad = dataclasses.replace(tbl, noncommuting_pair=(5, 9))
        assert recheck_deck_group(bad) == [
            "noncommuting pair (5, 9) recorded for the abelian group of k=2"
        ]

    @pytest.mark.parametrize("pair", [None, (0, 0), (0, 1), (1, 1), (0, 6), (-1, 2), (True, 2),
                                      (1,), (1, 2, 3)])
    def test_noncommuting_pair_rejected(self, pair):
        # (0, 1): the identity commutes with everything; 6 is out of range for k=3
        tbl = dataclasses.replace(deck_group(3), noncommuting_pair=pair)
        assert recheck_deck_group(tbl) == [
            f"noncommuting pair {pair!r} is not two indices whose products differ"
        ]

    def test_any_noncommuting_pair_accepted(self):
        tbl = deck_group(3)
        n = len(tbl.elements)
        for i in range(n):
            for j in range(n):
                rec = dataclasses.replace(tbl, noncommuting_pair=(i, j))
                commute = tbl.table[i][j] == tbl.table[j][i]
                assert (recheck_deck_group(rec) == []) is not commute


class TestDeckRigidity:
    def test_moved_regular_rejected(self):
        verdict = deck_rigidity(DeckElement((2, 1)), moved_regular=((Fraction(1), Fraction(2)),))
        assert not verdict.accepted
        assert verdict.moved_witness == (Fraction(1), Fraction(2))

    def test_pure_permutations_accepted(self):
        import itertools

        for k in (2, 3, 4):
            for images in itertools.permutations(range(1, k + 1)):
                verdict = deck_rigidity(DeckElement(images))
                assert verdict.accepted

    def test_identity_moves_allowed(self):
        # listing x -> x is not a move
        verdict = deck_rigidity(DeckElement((1, 2)), moved_regular=((Fraction(3), Fraction(3)),))
        assert verdict.accepted


class TestCrossingWords:
    def test_same_origin_excursion(self):
        loop = probe_loop(1, 1)
        assert crossing_word(loop) == Word(((1, 1), (1, -1)))

    def test_two_origin_excursion(self):
        loop = probe_loop(1, 2)
        assert crossing_word(loop) == Word(((1, 1), (2, -1)))

    def test_loop_avoiding_zero(self):
        path = PLPath(((Fraction(0), Fraction(1)), (Fraction(1, 2), Fraction(2)), (Fraction(1), Fraction(1))))
        loop = LabeledLoop(path, ())
        assert crossing_word(loop) == Word(())

    def test_touch_emits_no_letter(self):
        path = PLPath(
            (
                (Fraction(0), Fraction(1)),
                (Fraction(1, 2), Fraction(0)),
                (Fraction(1), Fraction(1)),
            )
        )
        loop = LabeledLoop(path, ((Fraction(1, 2), 1),))
        assert crossing_word(loop) == Word(())

    def test_unlabeled_zero_time(self):
        path = probe_loop(1, 2).path
        with pytest.raises(NonHausError, match=r"zero times \[1/4, 3/4\]; missing \[3/4\]$"):
            LabeledLoop(path, ((Fraction(1, 4), 1),))


class TestReduceWord:
    def test_single_cancellation(self):
        assert reduce_word(Word(((1, 1), (1, -1)))).letters == ()

    def test_no_cancellation(self):
        w = Word(((1, 1), (2, -1)))
        assert reduce_word(w).letters == w.letters

    def test_nested_cancellation(self):
        w = Word(((1, 1), (2, -1), (2, 1), (1, -1)))
        assert reduce_word(w).letters == ()

    def test_confluence_random_orders(self):
        # cancel pairs in random positions until stuck; compare with the stack pass
        rng = random.Random(13)

        def reduce_randomly(letters):
            letters = list(letters)
            while True:
                sites = [
                    i
                    for i in range(len(letters) - 1)
                    if letters[i][0] == letters[i + 1][0]
                    and letters[i][1] == -letters[i + 1][1]
                ]
                if not sites:
                    return tuple(letters)
                i = rng.choice(sites)
                del letters[i : i + 2]

        for _ in range(1000):
            letters = tuple(
                (rng.randint(1, 3), rng.choice((1, -1))) for _ in range(rng.randint(0, 12))
            )
            expected = reduce_word(Word(letters)).letters
            for _ in range(3):
                assert reduce_randomly(letters) == expected


class TestLoopClass:
    def test_two_origin_loop_split(self, quotient2, pseudo2):
        loop = probe_loop(1, 2)
        assert len(loop_class(loop, quotient2)) == 2
        assert len(loop_class(loop, pseudo2)) == 0

    def test_same_origin_loop_trivial(self, quotient2):
        assert len(loop_class(probe_loop(1, 1), quotient2)) == 0

    def test_loop_avoiding_zero_trivial(self, quotient2, pseudo2):
        path = PLPath(((Fraction(0), Fraction(1)), (Fraction(1, 2), Fraction(3)), (Fraction(1), Fraction(1))))
        loop = LabeledLoop(path, ())
        for cfg in (quotient2, pseudo2):
            assert len(loop_class(loop, cfg)) == 0


def random_null_loop(rng: random.Random, cfg: SpaceConfig) -> LabeledLoop:
    """A seeded loop with touches and crossings whose class is empty in cfg's model.

    In the chart model the crossing labels nest like brackets, each matched
    pair on one origin; in the ball model every label is drawn freely.
    """
    c0 = random_fraction(rng, 9, nonzero=True)
    xs = [c0]
    for _ in range(rng.randint(1, 9)):
        zero = xs[-1] != 0 and rng.random() < 0.4  # no zero plateaus
        xs.append(Fraction(0) if zero else random_fraction(rng, 9, nonzero=True))
    xs.append(c0)
    path = PLPath(tuple((Fraction(i, len(xs) - 1), x) for i, x in enumerate(xs)))
    pts = path.breakpoints
    zeros = [n for n, (_, x) in enumerate(pts) if x == 0]
    crossings = [n for n in zeros if pts[n - 1][1] * pts[n + 1][1] < 0]
    labels, open_labels = {}, []
    for n in zeros:
        if n in crossings and cfg.model is TopologyModel.QUOTIENT:
            left = len(crossings) - crossings.index(n)
            if open_labels and (left == len(open_labels) or rng.random() < 0.5):
                labels[n] = open_labels.pop()
                continue
            labels[n] = rng.randint(1, cfg.k)
            open_labels.append(labels[n])
        else:
            labels[n] = rng.randint(1, cfg.k)
    return LabeledLoop(path, tuple((pts[n][0], i) for n, i in labels.items()))


class TestContraction:
    def test_random_null_loops_contract(self):
        # contract_loop checks no stage; every stage it builds passes the re-check
        rng = random.Random(23)
        kinds = set()
        for model in TopologyModel:
            for k in (2, 3, 4):
                cfg = SpaceConfig(k, model)
                for _ in range(180):
                    loop = random_null_loop(rng, cfg)
                    assert len(loop_class(loop, cfg)) == 0
                    cert = contract_loop(loop, cfg)
                    assert recheck_contraction(cert, k) == []
                    kinds |= {stage.stage_kind for stage in cert.stages}
        assert kinds == {"remove-touch", "remove-crossing-pair", "straighten"}

    def test_same_origin_loop_stages(self, quotient2):
        cert = contract_loop(probe_loop(1, 1), quotient2)
        kinds = [s.stage_kind for s in cert.stages]
        assert kinds == ["remove-crossing-pair", "straighten"]
        first = cert.stages[0].certificate
        assert isinstance(first, LiftsEnumerated)
        # one zero component, forced to origin 1 by the excursion's labels
        assert first.assignments == (((0, 1),),)
        assert recheck_contraction(cert, quotient2.k) == []

    def test_two_origin_loop_not_contractible_quotient(self, quotient2):
        with pytest.raises(NonHausError, match="is nonempty in quotient"):
            contract_loop(probe_loop(1, 2), quotient2)

    def test_two_origin_loop_contracts_pseudometric(self, pseudo2):
        cert = contract_loop(probe_loop(1, 2), pseudo2)
        assert recheck_contraction(cert, pseudo2.k) == []

    def test_loop_avoiding_zero_single_stage(self, quotient2):
        path = PLPath(((Fraction(0), Fraction(1)), (Fraction(1, 2), Fraction(2)), (Fraction(1), Fraction(1))))
        cert = contract_loop(LabeledLoop(path, ()), quotient2)
        assert [s.stage_kind for s in cert.stages] == ["straighten"]
        from nonhaus.lifting import extract_zero_set

        assert extract_zero_set(cert.stages[0].field).segments == ()

    def test_touch_loop_contracts(self, quotient2):
        path = PLPath(
            (
                (Fraction(0), Fraction(1)),
                (Fraction(1, 2), Fraction(0)),
                (Fraction(1), Fraction(1)),
            )
        )
        loop = LabeledLoop(path, ((Fraction(1, 2), 2),))
        cert = contract_loop(loop, quotient2)
        assert [s.stage_kind for s in cert.stages] == ["remove-touch", "straighten"]
        assert recheck_contraction(cert, quotient2.k) == []

    def test_nested_word_contracts(self, quotient3):
        # down o1, up o2, down o2, up o1: reduces inner pair then outer pair
        path = PLPath(
            (
                (Fraction(0), Fraction(1)),
                (Fraction(1, 8), Fraction(0)),
                (Fraction(2, 8), Fraction(-1)),
                (Fraction(3, 8), Fraction(0)),
                (Fraction(4, 8), Fraction(1)),
                (Fraction(5, 8), Fraction(0)),
                (Fraction(6, 8), Fraction(-1)),
                (Fraction(7, 8), Fraction(0)),
                (Fraction(1), Fraction(1)),
            )
        )
        loop = LabeledLoop(
            path,
            (
                (Fraction(1, 8), 1),
                (Fraction(3, 8), 2),
                (Fraction(5, 8), 2),
                (Fraction(7, 8), 1),
            ),
        )
        assert len(loop_class(loop, quotient3)) == 0
        cert = contract_loop(loop, quotient3)
        assert [s.stage_kind for s in cert.stages] == [
            "remove-crossing-pair",
            "remove-crossing-pair",
            "straighten",
        ]
        assert recheck_contraction(cert, quotient3.k) == []

    @pytest.mark.parametrize("model", ["quotient", "pseudometric"])
    def test_touch_and_two_pairs_stages(self, model):
        # touch at 1/10 (label 3), then crossings down o1, up o2, down o2, up o1;
        # the chart model cancels the inner same-origin pair first, the ball
        # model the first two crossings
        f = [Fraction(n, 10) for n in range(11)]
        path = PLPath(tuple(zip(f, map(Fraction, (1, 0, 1, 0, -1, 0, 1, 0, -1, 0, 1)))))
        labels = ((f[1], 3), (f[3], 1), (f[5], 2), (f[7], 2), (f[9], 1))
        cfg = SpaceConfig(3, TopologyModel(model))
        cert = contract_loop(LabeledLoop(path, labels), cfg)
        crossings = labels[1:]
        if model == "quotient":
            first, second = (f[5], f[7]), (f[3], f[9])
            after_first = ((f[3], 1), (f[9], 1))
        else:
            first, second = (f[3], f[5]), (f[7], f[9])
            after_first = ((f[7], 2), (f[9], 1))
        assert [(s.stage_kind, s.removed, s.assignment, s.top_labels) for s in cert.stages] == [
            ("remove-touch", (f[1],), labels, crossings),
            ("remove-crossing-pair", first, crossings, after_first),
            ("remove-crossing-pair", second, after_first, ()),
            ("straighten", (), (), ()),
        ]
        assert all(x == 1 for _, x in cert.stages[-1].top.breakpoints)
        assert recheck_contraction(cert, cfg.k) == []

    def test_stages_accepted_by_engine(self, quotient2):
        cert = contract_loop(probe_loop(2, 2), quotient2)
        for stage in cert.stages:
            result = attempt_homotopy_lift(
                stage.field, dict(stage.assignment), quotient2, False
            )
            assert not isinstance(result, NoLift)
            assert result == stage.certificate

    def test_recheck_names_a_broken_chain(self, quotient2):
        cert = contract_loop(probe_loop(1, 1), quotient2)
        deeper = PLPath(tuple((t, 2 * x if x < 0 else x) for t, x in cert.loop.path.breakpoints))
        bad = dataclasses.replace(cert, loop=LabeledLoop(deeper, cert.loop.labels))
        assert recheck_contraction(bad, 2) == [
            "stage 0: bottom edge does not chain from the previous stage"
        ]

    def test_recheck_names_a_stage_that_is_not_accepted(self, quotient2):
        # the same stage with the pair labelled by two origins: a true NoLift,
        # which the stage's own re-check reproduces
        cert = contract_loop(probe_loop(1, 1), quotient2)
        stage = cert.stages[0]
        assignment = ((Fraction(1, 4), 1), (Fraction(3, 4), 2))
        nolift = attempt_homotopy_lift(stage.field, dict(assignment), quotient2, False)
        assert isinstance(nolift, NoLift)
        bad = dataclasses.replace(cert, loop=probe_loop(1, 2), stages=(
            dataclasses.replace(stage, assignment=assignment, certificate=nolift),
            *cert.stages[1:]))
        assert recheck_contraction(bad, 2) == ["stage 0: stage is not accepted"]

    def test_recheck_names_a_recorded_top_that_is_not_the_field_top(self, quotient2):
        # the last top path, still constant at the basepoint, recorded with fewer breakpoints
        cert = contract_loop(probe_loop(1, 1), quotient2)
        last = cert.stages[-1]
        constant = PLPath(((Fraction(0), cert.basepoint), (Fraction(1), cert.basepoint)))
        assert last.top != constant
        bad = dataclasses.replace(cert, stages=cert.stages[:-1] + (
            dataclasses.replace(last, top=constant),))
        assert recheck_contraction(bad, 2) == [
            f"stage {len(cert.stages) - 1}: recorded top path mismatch"
        ]

    def test_recheck_names_a_last_stage_that_is_not_constant(self, quotient2):
        bump = PLPath(((Fraction(0), Fraction(1)), (Fraction(1, 2), Fraction(2)), (Fraction(1), Fraction(1))))
        cert = contract_loop(LabeledLoop(bump, ()), quotient2)
        bad = dataclasses.replace(cert, stages=cert.stages[:-1])
        assert recheck_contraction(bad, 2) == [
            "final stage does not reach the constant loop at the basepoint"
        ]

    def test_classifier_engine_consistency(self, quotient2, pseudo2):
        loops = [probe_loop(1, 1), probe_loop(1, 2), probe_loop(2, 1), probe_loop(2, 2)]
        for loop in loops:
            trivial = len(loop_class(loop, quotient2)) == 0
            if trivial:
                assert recheck_contraction(contract_loop(loop, quotient2), 2) == []
            else:
                with pytest.raises(NonHausError, match="is nonempty in quotient"):
                    contract_loop(loop, quotient2)
            # ball model: always contractible
            assert recheck_contraction(contract_loop(loop, pseudo2), 2) == []
