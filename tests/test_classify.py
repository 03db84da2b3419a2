"""Tests for the group catalog, quotient tables, and the classification run."""

import dataclasses
import hashlib
import json
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

from tpg import classify
from tpg.classify import (
    _references,
    _rows,
    EXCLUDED_TYPE_NAMES,
    G11_ROWS,
    GROUP_NAMES,
    ClassificationError,
    catalog,
    identify,
    is_triangle_point,
    lemma_m66_groups,
    lemma_r4_groups,
    normal_subgroups_index_gt,
    obstruction_target,
    quotient_records,
    report_to_json,
    small_tp_groups,
    table_rows,
    target_config,
    variant_groups_72,
    variant_groups_216,
    write_outputs,
)
from tpg.axial import t_closure, t_equivalent, verify_certificate
from tpg.fpgrp import coset_action, todd_coxeter, tp_presentation
from tpg.permgrp import (
    Perm,
    alternating_group,
    cyclic_group,
    dihedral_group,
    direct_product,
    elementary_abelian_2,
    find_isomorphism,
    generate,
    isomorphic,
    symmetric_group,
    trivial_group,
)

CATALOG_ORDERS = {
    "G1": 64, "G2": 144, "G3": 160, "G4": 240, "G5": 660, "G6": 384,
    "G7": 960, "G8": 1440, "G9": 1152, "G10": 3840, "G11": 17496,
}


@pytest.fixture(scope="module")
def entries():
    return {e.name: e for e in catalog()}


def _tc_group(m, n, p, r=(None,) * 5):
    return coset_action(todd_coxeter(tp_presentation(m, n, p, r)))


class TestCatalog:
    def test_orders(self, entries):
        assert {n: e.order for n, e in entries.items()} == CATALOG_ORDERS

    def test_sources(self, entries):
        presented = {n for n, e in entries.items() if e.source == "coset-action"}
        assert presented == {"G3", "G5", "G7", "G11"}

    def test_claimed_names(self, entries):
        assert entries["G1"].claimed == "2wr2^2"
        assert entries["G11"].claimed == "(3^4:2):(3^{1+2}:2^2)"

    def test_generators_are_tracked_images(self, entries):
        for e in entries.values():
            images = e.images()
            assert [p.key() for p in e.group.generators] == [
                images[k].key() for k in "abc"
            ]

    def test_maximal_groups_are_triangle_points(self, entries):
        for e in entries.values():
            images = e.images()
            assert is_triangle_point(e.group, *(images[k] for k in "abc"))


class TestNormalLattice:
    @pytest.mark.parametrize("name, orders", [
        ("G1", [2, 4, 4, 4]),
        ("G2", [2, 9]),
        ("G3", []),
        ("G4", [2]),
        ("G5", []),
    ])
    def test_small_parents(self, entries, name, orders):
        lattice = normal_subgroups_index_gt(entries[name].group, 12)
        assert sorted(N.order for N in lattice) == sorted(orders)

    def test_index_twelve_is_excluded(self):
        # every proper normal subgroup of C12 has index <= 12
        assert normal_subgroups_index_gt(cyclic_group(12), 12) == []

    def test_members_are_normal_and_divide(self, entries):
        G = entries["G6"].group
        for N in normal_subgroups_index_gt(G, 12):
            assert G.is_normal(N)
            assert G.order % N.order == 0
            assert G.order // N.order > 12

    def test_g11_lattice_matches_table_rows(self, entries):
        lattice = normal_subgroups_index_gt(entries["G11"].group, 12)
        assert len(lattice) == len(G11_ROWS) == 23
        assert [N.order for N in lattice] == sorted(r.order for r in G11_ROWS)

    def test_join_closed(self, entries):
        G = entries["G6"].group
        lattice = normal_subgroups_index_gt(G, 12)
        keys = {N.element_key_set() for N in lattice}
        limit = -(-G.order // 12) - 1
        joined = 0
        for A in lattice:
            for B in lattice:
                J = generate(G.degree, list(A.generators) + list(B.generators))
                if J.order <= limit:
                    assert J.element_key_set() in keys
                    joined += 1
        assert joined > len(lattice)  # some genuinely distinct pairs joined


class TestQuotientRecords:
    def test_rows_match_tables(self, classification_report):
        by_parent = {}
        for rec in classification_report.quotients:
            by_parent.setdefault(rec.parent, []).append(rec)
        for name in GROUP_NAMES:
            want = Counter((r.order, r.claimed) for r in table_rows(name))
            got = Counter(
                (r.subgroup_order, r.type_name) for r in by_parent.get(name, [])
            )
            assert got == want, name

    def test_row_counts(self, classification_report):
        per_parent = Counter(r.parent for r in classification_report.quotients)
        assert per_parent["G11"] == 23
        assert sum(per_parent.values()) == 46

    def test_identified_matches_claimed(self, classification_report):
        for rec in classification_report.quotients:
            assert rec.type_name == rec.claimed

    def test_orders_multiply(self, classification_report, entries):
        for rec in classification_report.quotients:
            parent = entries[rec.parent]
            assert rec.subgroup_order * rec.quotient_order == parent.order

    def test_all_quotients_are_triangle_points(self, classification_report):
        assert all(r.triangle_point for r in classification_report.quotients)

    def test_repaired_rows(self, classification_report):
        repaired = {
            (r.parent, r.subgroup_order, r.words)
            for r in classification_report.quotients if r.repaired
        }
        assert repaired == {
            ("G4", 2, ("(ab * a^c)^3",)),
            ("G7", 16, ("(abc)^3",)),
            ("G9", 32, ("(abc)^3", "(a * b^c)^2")),
            ("G11", 486, ("(abc)^3", "(a * b^c)^2")),
            ("G11", 81, ("(a * c^(abc))^2",)),
        }

    def test_g4_row_regenerates(self, entries):
        recs = quotient_records(entries["G4"])
        assert [(r.subgroup_order, r.type_name) for r in recs] == [(2, "S5")]


class TestIdentify:
    def test_named_groups(self):
        assert identify(trivial_group()) == "1"
        assert identify(alternating_group(5)) == "A5"
        assert identify(symmetric_group(6)) == "S6"
        assert identify(dihedral_group(12)) == "D12"
        assert identify(direct_product(cyclic_group(2), symmetric_group(4))) == "2xS4"

    def test_quotient_examples(self, classification_report):
        by_parent = {}
        for rec in classification_report.quotients:
            by_parent.setdefault(rec.parent, []).append(rec)
        assert by_parent["G7"][0].type_name == "A5"
        g10 = {r.quotient_order: r.type_name for r in by_parent["G10"]}
        assert g10[1920] == "2^4:S5"

    def test_isomorphism_images_pinned(self, classification_report):
        # the images find_isomorphism certifies for each G1..G10 row's match,
        # as the per-prefix search that re-closed every prefix found them
        lines = []
        for rec in classification_report.quotients:
            if rec.parent == "G11":
                continue
            R = next(R for name, R in _references(rec.quotient_order)
                     if name == rec.type_name)
            images = find_isomorphism(rec.group, R)
            lines.append(f"{rec.parent} {rec.subgroup_order} {rec.type_name} "
                         + " ".join(map(str, images)))
        assert len(lines) == 23
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
            "feef060b28a1ae2a51ea500332909a1529637a57a048438e4f50e47e13ea7bc9")

    def test_unmatched_gets_placeholder(self):
        name = identify(symmetric_group(7))
        assert name.startswith("?order5040/")

    def test_builders_identify_as_their_names(self):
        # a fresh copy of each reference matches itself first, which pins the
        # match order where two references share an order (8, 24, 72, 216)
        for spec in _rows("reference"):
            R = classify.build(spec)
            assert R.order == spec.order
            assert identify(R) == spec.name, spec.name

    def test_identify_builds_only_its_order(self):
        # in a fresh process: no reference of order 5040, so no catalog entry
        code = (
            "from tpg import classify\n"
            "from tpg.permgrp import symmetric_group\n"
            "print(classify.identify(symmetric_group(7)))\n"
            "print(classify.entry.cache_info().currsize)\n")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        name, built = proc.stdout.split()
        assert name.startswith("?order5040/")
        assert built == "0"

    def test_rejects_large_order(self):
        with pytest.raises(ValueError):
            identify(symmetric_group(8))

    def test_same_order_references_must_differ_in_fingerprint(self, monkeypatch):
        # two copies of S3 at order 6, an order no reference uses
        monkeypatch.setattr(classify, "_SPECS", classify._SPECS + (
            classify.GroupSpec("reference", "S3", 6, factors=(("S", 3),)),
            classify.GroupSpec("reference", "D6", 6, factors=(("D", 6),))))
        _references.cache_clear()
        with pytest.raises(ClassificationError, match="S3 and D6 of order 6"):
            identify(symmetric_group(3))


class TestTrianglePointVerdict:
    def test_elementary_abelian(self):
        G = elementary_abelian_2(3)
        a, b, c = G.generating_tuple()
        assert is_triangle_point(G, a, b, c)

    def test_s3_fails_for_every_triple(self):
        G = symmetric_group(3)
        invs = G.involutions()
        for a in invs:
            for b in invs:
                for c in invs:
                    assert not is_triangle_point(G, a, b, c)

    def test_membership_required(self):
        G = elementary_abelian_2(2)
        a, b = G.generators
        with pytest.raises(ValueError):
            is_triangle_point(G, Perm.parse("(1,3)", 4), a, b)

    def test_small_catalog(self):
        names = sorted(g.name for g in small_tp_groups())
        assert names == ["2^2", "2^3", "D12", "D8"]

    def test_product_order_above_six_is_false(self):
        a = Perm.parse("(1,2)", 7)
        b = Perm.parse("(3,4)", 7)
        c = Perm.parse("(2,3)(4,5)(6,7)", 7)
        # a, b, c, ab are involutions generating G, but two elements of
        # their class union multiply to an element of order 10
        assert not is_triangle_point(generate(7, [a, b, c]), a, b, c)


def _separates(G) -> bool:
    images = G.element_images[:, G.base()]
    return len(np.unique(images, axis=0)) == G.order


def _g10_2_4_s5(report):
    (rec,) = [r for r in report.quotients
              if r.parent == "G10" and r.claimed == "2^4:S5"]
    return rec.group


class TestBaseImageLookup:
    def test_base_separates_catalog_groups(self, entries):
        for e in entries.values():
            assert _separates(e.group), e.name
        assert len(entries["G11"].group.base()) == 2

    def test_base_separates_quotients(self, classification_report):
        for rec in classification_report.quotients:
            assert _separates(rec.group), (rec.parent, rec.subgroup_order)
            if rec.parent != "G11":  # regular coset actions
                assert len(rec.group.base()) == 1

    @pytest.mark.parametrize("source", ["G6", "G10", "G10/N2"])
    def test_product_orders_on_class_union(self, entries, classification_report,
                                           source):
        if source == "G10/N2":
            G = _g10_2_4_s5(classification_report)
            a, b, c = (G.tracked[k] for k in "abc")
        else:
            G = entries[source].group
            a, b, c = (entries[source].images()[k] for k in "abc")
        M = G.element_images[G.class_union((a, b, c, a * b))]
        perms = [Perm(row) for row in M]
        orders = {}  # many pairs share a product; order each product once

        def order(pq):
            if pq.key() not in orders:
                orders[pq.key()] = pq.order()
            return orders[pq.key()]

        want = [[order(p * q) for q in perms] for p in perms]
        assert G.product_orders(M, M).tolist() == want


class TestPresentationCollapses:
    def test_lemma_r4(self):
        groups = lemma_r4_groups()
        assert {k: g.order for k, g in groups.items()} == {
            1: 12, 2: 216, 3: 108, 4: 216, 5: 12,
        }
        assert isomorphic(groups[1], dihedral_group(12))
        assert isomorphic(groups[5], dihedral_group(12))
        g366 = _tc_group(3, 6, 6)
        assert isomorphic(groups[3], g366)
        doubled = direct_product(cyclic_group(2), g366)
        assert isomorphic(groups[2], doubled)
        assert isomorphic(groups[4], doubled)

    def test_lemma_m66(self):
        groups = lemma_m66_groups()
        assert {k: g.order for k, g in groups.items()} == {1: 4, 2: 24, 3: 108}
        assert isomorphic(groups[1], elementary_abelian_2(2))
        assert isomorphic(groups[2],
                          direct_product(cyclic_group(2), dihedral_group(12)))
        assert isomorphic(groups[3], _tc_group(3, 6, 6))

    def test_order_72_variants(self):
        variants = variant_groups_72()
        assert [g.order for g in variants] == [72, 72, 72]
        assert isomorphic(variants[0], variants[1])
        assert isomorphic(variants[0], variants[2])
        assert isomorphic(variants[1], variants[2])

    def test_order_216_variants(self):
        variants = variant_groups_216()
        assert [g.order for g in variants] == [216, 216, 216]
        assert isomorphic(variants[0], variants[1])
        assert isomorphic(variants[0], variants[2])
        assert isomorphic(variants[1], variants[2])


class TestBuildRefusals:
    """build refuses a row whose group contradicts what the row states."""

    @pytest.mark.parametrize("role, name, changes, message", [
        ("catalog", "G1", {"order": 65}, "G1: generated order 64, catalog says 65"),
        ("catalog", "G1", {"extra": ("ac",)}, "G1: relator ac fails"),
        ("target", "S6", {"order": 360}, "S6: generated order 720, target says 360"),
        ("reference", "2^4:2", {"order": 64},
         "2^4:2: generated order 32, reference says 64"),
        # G11's presentation with (ac)^3 added: a target the tower argument
        # cannot use
        ("target", "S3:(3^{1+2}:2^2)", {"order": 108, "extra": ("(ac)^3",)},
         "S3:(3^{1+2}:2^2): o(ac) = 3, the tower argument needs 6"),
    ])
    def test_refusal_names_the_row(self, role, name, changes, message):
        spec = dataclasses.replace(classify._row(role, name), **changes)
        with pytest.raises(ClassificationError) as exc:
            classify.build(spec)
        assert str(exc.value) == message


class TestObstructions:
    def test_every_excluded_type_certifies(self, classification_report):
        assert set(classification_report.certificates) == set(EXCLUDED_TYPE_NAMES)
        for name, cert in classification_report.certificates.items():
            assert verify_certificate(target_config(name), cert), name

    def test_kinds(self, classification_report):
        kinds = {n: c.kind for n, c in classification_report.certificates.items()}
        assert kinds.pop("2^4:S5") == "m1-audit"
        assert set(kinds.values()) == {"klein"}

    def test_unknown_target_rejected(self):
        with pytest.raises(KeyError):
            obstruction_target("S4")

    def test_targets_identify_as_their_names(self):
        for spec in _rows("target"):
            assert identify(obstruction_target(spec.name)) == spec.name, spec.name

    def test_target_orders(self):
        orders = [obstruction_target(spec.name).order for spec in _rows("target")]
        assert orders == [72, 720, 1152, 1920, 216, 216, 648, 1944, 5832, 17496]


class TestReport:
    def test_type_counts(self, classification_report):
        rec = classification_report.reconciliation
        assert len(classification_report.types) == 36
        assert rec["computed_total"] == 36
        assert rec["computed_excluded"] == 10
        assert rec["computed_admissible"] == 26
        assert rec["stated_total"] == 37
        assert rec["stated_admissible"] == 27

    def test_admissible_disjoint_from_excluded(self, classification_report):
        excluded = {t.name for t in classification_report.types if t.excluded}
        admissible = {t.name for t in classification_report.admissible}
        assert excluded == set(EXCLUDED_TYPE_NAMES)
        assert not (excluded & admissible)
        assert len(excluded) + len(admissible) == 36

    def test_every_type_has_provenance(self, classification_report):
        for t in classification_report.types:
            assert t.sources
            assert not t.name.startswith("?")

    def test_placeholder_source_stops_the_run(self, monkeypatch):
        # a pipeline of one small group that no reference matches
        G = cyclic_group(3)
        G.name = identify(G)
        monkeypatch.setattr(classify, "catalog", lambda capacity: [])
        monkeypatch.setattr(classify, "small_tp_groups", lambda: [G])
        monkeypatch.setattr(classify, "EXCLUDED_TYPE_NAMES", ())
        with pytest.raises(ClassificationError,
                           match=r"small:\?order3/.*no reference group matches"):
            classify.classify_all()

    def test_source_count(self, classification_report):
        total = sum(len(t.sources) for t in classification_report.types)
        assert total == 4 + 11 + 46

    def test_count_discrepancies_reported(self, classification_report):
        joined = "\n".join(classification_report.discrepancies)
        assert "computed 36" in joined
        assert "computed 26" in joined

    def test_json_round_trip_and_determinism(self, classification_report, tmp_path):
        data = report_to_json(classification_report)
        assert data["schema"] == "tpg.classification/1"
        assert json.dumps(data) == json.dumps(report_to_json(classification_report))
        paths = write_outputs(classification_report, tmp_path)
        assert sorted(p.name for p in paths) == ["classification.json", "tables.md"]
        loaded = json.loads((tmp_path / "classification.json").read_text())
        assert loaded["reconciliation"]["computed_admissible"] == 26
        assert len(loaded["excluded"]) == 10


# Quotient sources are labelled parent/N|N|:claimed[X words].
S4X2_ROW1 = "G6/N8:2xS4[(ab * b^c)^3, (a^c * c^b)^2]"
S4X2_ROW2 = "G6/N8:2xS4[(bc)^3]"
S4X2_ROW3 = "G6/N8:2xS4[(abc)^3]"
S5_G4 = "G4/N2:S5[(ab * a^c)^3]"
S5_G10 = "G10/N32:S5[((ac)^2(bc)^2)^2]"


def _type_entry(report, name):
    return next(t for t in report.types if t.name == name)


def _row_config(report, parent, words):
    rec = next(r for r in report.quotients
               if r.parent == parent and r.words == words)
    return t_closure(rec.group, *(rec.group.tracked[k] for k in "abc"))


class TestConfigurations:
    def test_2xs4_rows_split_one_and_two(self, classification_report):
        t = _type_entry(classification_report, "2xS4")
        assert [c.sources for c in t.configurations] == [
            (S4X2_ROW1,), (S4X2_ROW2, S4X2_ROW3)]
        # equal |T|, told apart by how T meets the derived subgroup
        assert [c.invariants for c in t.configurations] == [
            (16, 3, 1), (16, 0, 1)]

    def test_s5_rows_merge(self, classification_report):
        t = _type_entry(classification_report, "S5")
        assert [c.sources for c in t.configurations] == [(S5_G4, S5_G10)]

    def test_2xs4_admissible_provenance(self, classification_report):
        entries = [c for c in classification_report.admissible
                   if c.name == "2xS4"]
        assert [c.sources for c in entries] == [
            (S4X2_ROW1,), (S4X2_ROW2, S4X2_ROW3)]
        assert [c.tset_size for c in entries] == [16, 16]
        assert entries[0].pair_types["4B"] == 24
        assert "4A" not in entries[0].pair_types
        assert entries[1].pair_types["4A"] == 24
        assert "4B" not in entries[1].pair_types

    def test_excluded_types_have_one_configuration(self, classification_report):
        excluded = [t for t in classification_report.types if t.excluded]
        assert sorted(t.name for t in excluded) == sorted(EXCLUDED_TYPE_NAMES)
        for t in excluded:
            assert len(t.configurations) == 1, t.name

    def test_t_preserving_isomorphism_check(self, classification_report):
        row1 = _row_config(classification_report, "G6",
                           ("(ab * b^c)^3", "(a^c * c^b)^2"))
        row2 = _row_config(classification_report, "G6", ("(bc)^3",))
        assert isomorphic(row1.group, row2.group)
        assert len(row1.tset) == len(row2.tset) == 16
        assert not t_equivalent(row1, row2)
        assert not t_equivalent(row2, row1)
        s5_g4 = _row_config(classification_report, "G4", ("(ab * a^c)^3",))
        s5_g10 = _row_config(classification_report, "G10",
                             ("((ac)^2(bc)^2)^2",))
        assert t_equivalent(s5_g4, s5_g10)
        assert t_equivalent(s5_g10, s5_g4)

    def test_configuration_counts(self, classification_report):
        rec = classification_report.reconciliation
        assert rec["computed_configurations"] == 37
        assert rec["computed_admissible_configurations"] == 27
        admissible = report_to_json(classification_report)["admissible"]
        assert len(admissible) == 27
        for entry in admissible:
            assert entry["sources"]
            n = entry["tset_size"]
            assert sum(entry["pair_types"].values()) == n * (n - 1) // 2
