"""Command line: exit codes, output stability, golden lines."""

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from abcat.abgrp import cyclic
from abcat.cli import main
from abcat.documents import Document, parse_category_body, serialize_document
from abcat.fincat import (FinFunctor, chain_category, discrete_category, group_as_category,
                          identity_functor, validate_category)
from abcat.intmat import ColumnLattice, IntMatrix, _smith_work, smith_diagonal
from abcat.sampling import random_matrix
from abcat.setdiag import FinSet, SetFunctor
from cat_corpus import constant_diagram, determinant
from test_golden_cli import PER_FIXTURE

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).parent.parent / "src"


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_filtered_chain(capsys):
    code, out, _ = run_cli(capsys, "check", "filtered", FIXTURES / "chain3.json")
    assert code == 0
    assert "holds: True" in out


def test_check_filtered_discrete_fails(capsys):
    code, out, _ = run_cli(capsys, "check", "filtered", FIXTURES / "discrete2.json")
    assert code == 1
    assert "no upper bound" in out


def test_check_connected_and_sifted(capsys):
    assert run_cli(capsys, "check", "connected", FIXTURES / "chain3.json")[0] == 0
    assert run_cli(capsys, "check", "connected", FIXTURES / "discrete2.json")[0] == 1
    assert run_cli(capsys, "check", "sifted", FIXTURES / "chain3.json")[0] == 0
    assert run_cli(capsys, "check", "sifted", FIXTURES / "discrete2.json")[0] == 1


def test_check_final(capsys):
    code, out, _ = run_cli(capsys, "check", "final", FIXTURES / "top_inclusion.json")
    assert code == 0


def test_check_final_names_the_failing_objects(tmp_path, capsys):
    # {0} into 0 -> 1: the slice under 1 is empty
    chain = chain_category(2)
    path = tmp_path / "bottom.json"
    path.write_text(serialize_document(Document(
        "functor", FinFunctor(discrete_category(1), chain, [0], [chain.identity[0]]))))
    code, out, _ = run_cli(capsys, "check", "final", path, "--format", "machine")
    assert (code, json.loads(out)) == (
        1, {"check": "final", "holds": False, "failing_objects": [1]})


def test_check_final_rejects_a_functor_that_breaks_a_domain(tmp_path, capsys):
    # 0 -> 1 and 1 -> 2, but 0<=1 goes to 0<=2: its codomain is kept, its domain is not
    path = tmp_path / "functor.json"
    path.write_text(serialize_document(Document(
        "functor", FinFunctor(chain_category(2), chain_category(3), [1, 2], [3, 2, 5]))))
    assert run_cli(capsys, "check", "final", path) == (
        2, "", "error: invalid functor: functor breaks dom at morphism 1; "
        "functor images of (1,0) are not composable\n")


def test_empty_category_is_neither_filtered_nor_sifted(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"kind": "category", "objects": [], "morphisms": [],
                                "identities": {}, "composition": []}))
    code, out, _ = run_cli(capsys, "check", "filtered", path, "--format", "machine")
    assert (code, json.loads(out)) == (1, {"check": "filtered", "holds": False,
                                           "reason": "category is empty", "failing": None})
    code, out, _ = run_cli(capsys, "check", "sifted", path, "--format", "machine")
    assert (code, json.loads(out)) == (1, {"check": "sifted", "holds": False,
                                           "reason": "category is empty",
                                           "failing_pairs": []})


def test_limit_colimit(capsys):
    code, out, _ = run_cli(capsys, "limit", FIXTURES / "equalizer_sets.json")
    assert code == 0
    assert "limit_size: 1" in out
    code, out, _ = run_cli(capsys, "colimit", FIXTURES / "equalizer_sets.json")
    assert code == 0
    assert "colimit_size: 1" in out


def test_hx_command(capsys):
    code, out, _ = run_cli(capsys, "hx", "--set", "a,b", "--cap", "2")
    assert code == 0
    assert "objects: 7" in out
    assert "morphisms: 35" in out


def test_ab_snf(capsys):
    code, out, _ = run_cli(capsys, "ab", "snf", FIXTURES / "z6_presentation.json")
    assert code == 0
    assert "canonical_form: Z/6" in out
    assert "diagonal: [1, 6]" in out


def test_ab_snf_builds_one_relation_lattice(monkeypatch, capsys):
    built = []
    init = ColumnLattice.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ColumnLattice, "__init__", counting)
    code, out, _ = run_cli(capsys, "ab", "snf", FIXTURES / "z6_presentation.json")
    assert code == 0 and "diagonal: [1, 6]" in out
    assert len(built) == 1


def test_ab_snf_text_reads_the_diagonal_only(capsys, tmp_path):
    # a 40 x 40 group: the text format prints no transforms, so it must not
    # pay for them
    m = random_matrix(random.Random(0), 40, 40, 9)
    path = tmp_path / "g40.json"
    path.write_text(json.dumps({"kind": "abgroup", "generators": 40,
                                "relations": [list(c) for c in m.columns()]}))
    code, out, _ = run_cli(capsys, "ab", "snf", path)
    assert code == 0
    # the same elimination smith() runs, without its transforms
    a = _smith_work(m, track=False)
    assert out.splitlines()[0] == f"diagonal: {[a[i][i] for i in range(40)]}"


@pytest.mark.parametrize("n", [30, 40])
def test_ab_snf_machine_prints_unimodular_transforms(tmp_path, n):
    # Smith with transforms on the raw matrix ran past the int-to-str limit
    m = random_matrix(random.Random(0), n, n, 9)
    path = tmp_path / f"g{n}.json"
    path.write_text(json.dumps({"kind": "abgroup", "generators": n,
                                "relations": [list(c) for c in m.columns()]}))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "abcat", "ab", "snf", str(path),
                           "--format", "machine"],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(SRC)))
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0 and elapsed < 1.0
    out = json.loads(proc.stdout)
    s, u, v = (IntMatrix(out[k]) for k in "suv")
    assert u @ m @ v == s
    assert [s.data[i][i] for i in range(n)] == list(smith_diagonal(m))
    assert abs(determinant(u)) == 1 and abs(determinant(v)) == 1


def test_ab_coinvariants_golden(capsys):
    code, out, _ = run_cli(capsys, "ab", "coinvariants", FIXTURES / "neg_z.json")
    assert code == 0
    assert out == "coinvariants: Z/2\n"
    code, out, _ = run_cli(capsys, "ab", "invariants", FIXTURES / "neg_z.json")
    assert code == 0
    assert out == "invariants: 0\n"


def test_ab_sum(capsys):
    code, out, _ = run_cli(capsys, "ab", "sum", FIXTURES / "family.json")
    assert code == 0
    assert "sum: Z x Z/2" in out


def test_ab_colimit_limit_on_diagram(capsys):
    code, out, _ = run_cli(capsys, "ab", "colimit", FIXTURES / "ab5_chain.json")
    assert code == 0
    code, out, _ = run_cli(capsys, "ab", "limit", FIXTURES / "ab5_chain.json")
    assert code == 0


def test_ab_colimit_rejects_generators_that_do_not_generate(tmp_path, capsys):
    base = chain_category(3)
    diagram = constant_diagram(base, cyclic(2))
    doc = json.loads(serialize_document(Document("abdiagram", diagram)))
    good = tmp_path / "good.json"
    doc["base"]["generators"] = ["0<=1", "1<=2"]
    good.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "ab", "colimit", good)
    assert code == 0
    assert "Z/2" in out
    bad = tmp_path / "bad.json"
    doc["base"]["generators"] = ["0<=1"]
    bad.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "ab", "colimit", bad)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "is not a composite of generators" in err


def test_ab_colimit_limit_reject_an_invalid_base(tmp_path, capsys):
    chain = chain_category(3)
    documents = {
        "abdiagram": Document("abdiagram", constant_diagram(chain, cyclic(2))),
        "setdiagram": Document("setdiagram", SetFunctor(chain, [FinSet(2)] * 3,
                                                        [(0, 1)] * chain.n_morphisms)),
        "functor": Document("functor", identity_functor(chain)),
    }
    commands = {"abdiagram": (("ab", "colimit"), ("ab", "limit")),
                "setdiagram": (("colimit",), ("limit",)),
                "functor": (("check", "final"),)}
    for kind, document in documents.items():
        doc = json.loads(serialize_document(document))
        for key in ("source", "target") if kind == "functor" else ("base",):
            # (1<=2)∘(0<=1) set to 0<=1, whose codomain is 1, not 2
            doc[key]["composition"] = [
                [g, f, "0<=1" if (g, f) == ("1<=2", "0<=1") else gf]
                for g, f, gf in doc[key]["composition"]]
        bad = tmp_path / f"bad_{kind}.json"
        bad.write_text(json.dumps(doc))
        for words in commands[kind]:
            code, out, err = run_cli(capsys, *words, bad)
            assert code == 2
            assert out == ""
            assert err.startswith("error: invalid category:") and err.count("\n") == 1
            assert "wrong endpoints" in err


def _category_bodies(doc):
    """The category bodies of a fixture document."""
    kind = doc["kind"]
    if kind == "category":
        return [doc]
    if kind == "functor":
        return [doc["source"], doc["target"]]
    if kind == "setdiagram" and "factors" in doc:
        return doc["factors"]
    if kind in ("setdiagram", "abdiagram"):
        return [doc["base"]]
    return []


def _break_one_composite(body):
    """Set the first composite that is not the identity of its source to
    that identity; False when every listed composite is one."""
    source = {m["name"]: m["dom"] for m in body["morphisms"]}
    for triple in body["composition"]:
        identity = body["identities"][source[triple[1]]]
        if triple[2] != identity:
            triple[2] = identity
            return True
    return False


def test_every_command_rejects_an_invalid_category_in_any_body(tmp_path, capsys):
    # each category body of each fixture, broken in one composite, is
    # rejected by every command that accepts the fixture itself
    probed = set()
    for fixture in sorted(FIXTURES.glob("*.json")):
        accepting = [words for words in PER_FIXTURE
                     if run_cli(capsys, *words, fixture)[0] != 2]
        text = fixture.read_text()
        for i in range(len(_category_bodies(json.loads(text)))):
            doc = json.loads(text)
            body = _category_bodies(doc)[i]
            if not _break_one_composite(body):
                continue
            assert not validate_category(parse_category_body(body)).ok
            bad = tmp_path / f"{fixture.stem}_{i}.json"
            bad.write_text(json.dumps(doc))
            for words in accepting:
                code, out, err = run_cli(capsys, *words, bad)
                assert (code, out) == (2, ""), (fixture.name, i, words)
                assert err.startswith("error: invalid category:"), (fixture.name, i, words)
                assert err.count("\n") == 1
                probed.add((fixture.name, words))
    assert {("gset_chain.json", ("verify", "commute")),
            ("gset_chain.json", ("verify", "fixpoints")),
            ("top_inclusion.json", ("check", "final")),
            ("ab5_chain.json", ("verify", "ab5"))} <= probed


def test_a_product_base_is_checked_factor_by_factor(tmp_path, capsys):
    # the product of the empty category with a broken one is empty, so it
    # passes the laws itself; each command reads the broken factor
    broken = {"objects": ["0", "1"],
              "morphisms": [{"name": "id0", "dom": "0", "cod": "0"},
                            {"name": "id1", "dom": "1", "cod": "1"},
                            {"name": "f", "dom": "0", "cod": "1"}],
              "identities": {"0": "id0", "1": "id1"},
              "composition": [["f", "id0", "id1"]]}
    empty = {"objects": [], "morphisms": [], "identities": {}, "composition": []}
    bad = tmp_path / "broken_factor.json"
    bad.write_text(json.dumps({"kind": "setdiagram", "factors": [empty, broken],
                               "sets": {}, "maps": {}}))
    for words in (("limit",), ("colimit",), ("verify", "commute")):
        code, out, err = run_cli(capsys, *words, bad)
        assert (code, out) == (2, ""), words
        assert err.startswith("error: invalid category:") and err.count("\n") == 1


def test_verify_notlex_exits_zero_with_certificate(capsys):
    code, out, _ = run_cli(capsys, "verify", "notlex", FIXTURES / "notlex.json")
    assert code == 0
    assert "induced map mono: False" in out
    assert "coinvariants source: Z/2" in out
    assert "coinvariants target: Z" in out


def test_verify_notlex_builtin_default(capsys):
    code, out, _ = run_cli(capsys, "verify", "notlex")
    assert code == 0


def test_verify_harting_file(capsys):
    code, out, _ = run_cli(capsys, "verify", "harting", FIXTURES / "family.json",
                           "--cap", "2", "--stability-cap", "3")
    assert code == 0
    assert "canonical form: Z x Z/2" in out
    assert "cap stable: True" in out


def test_verify_ab4_file(capsys):
    code, out, _ = run_cli(capsys, "verify", "ab4", FIXTURES / "ab4_family.json")
    assert code == 0
    assert "induced mono: True" in out


def test_verify_ab5_file(capsys):
    code, out, _ = run_cli(capsys, "verify", "ab5", FIXTURES / "ab5_chain.json")
    assert code == 0


def _broken_ab5_chain(tmp_path, name, edit):
    doc = json.loads((FIXTURES / "ab5_chain.json").read_text())
    edit(doc)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def test_verify_ab5_rejects_an_invalid_category(capsys, tmp_path):
    def edit(doc):
        # (0<=1)∘(0<=0) set to 1<=1, whose domain is 1, not 0
        doc["base"]["composition"] = [
            row[:2] + ["1<=1"] if row[:2] == ["0<=1", "0<=0"] else row
            for row in doc["base"]["composition"]]
    bad = _broken_ab5_chain(tmp_path, "bad_category.json", edit)
    for words in (("verify", "ab5"), ("ab", "colimit")):
        code, out, err = run_cli(capsys, *words, bad)
        assert code == 2
        assert out == ""
        assert err.startswith("error: invalid category:") and err.count("\n") == 1


def test_ill_defined_hom_is_rejected(capsys, tmp_path):
    def edit(doc):
        # sends the relation (0, 2) to (2, 2), outside the target lattice
        doc["homs"]["0<=1"] = [[1, 1], [0, 1]]
    bad = _broken_ab5_chain(tmp_path, "bad_hom.json", edit)
    for words in (("verify", "ab5"), ("ab", "colimit"), ("ab", "limit")):
        code, out, err = run_cli(capsys, *words, bad)
        assert code == 2
        assert out == ""
        assert err.startswith("error: invalid diagram:") and err.count("\n") == 1
        assert "does not respect the relations" in err

    def edit_target(doc):
        # the target's identity at object 0 becomes negation
        doc["target"]["homs"]["0<=0"] = [[-1]]
    bad = _broken_ab5_chain(tmp_path, "bad_target.json", edit_target)
    assert run_cli(capsys, "verify", "ab5", bad) == (
        2, "", "error: invalid target diagram: hom of identity morphism at object 0 "
        "is not the identity; homs break composite (0,0); homs break composite (1,0)\n")


def test_verify_commute_and_fixpoints_file(capsys):
    code, out, _ = run_cli(capsys, "verify", "commute", FIXTURES / "gset_chain.json")
    assert code == 0
    code, out, _ = run_cli(capsys, "verify", "fixpoints", FIXTURES / "gset_chain.json")
    assert code == 0


def test_verify_fixpoints_needs_a_group(capsys, tmp_path):
    doc = json.loads((FIXTURES / "gset_chain.json").read_text())
    # g∘g := g makes the one-object factor an idempotent monoid, which passes
    # the category laws but has no inverse of g
    factor = doc["factors"][1]
    factor["composition"] = [row[:2] + ["g"] if row[:2] == ["g", "g"] else row
                             for row in factor["composition"]]
    path = tmp_path / "monoid_chain.json"
    path.write_text(json.dumps(doc))
    assert run_cli(capsys, "verify", "fixpoints", path) == (
        2, "", "error: the second factor must be a one-object group category\n")


def test_verify_fixpoints_reads_both_sides_off_the_interchange(monkeypatch, capsys):
    from abcat import verify
    interchange = verify.commute_check

    def lopsided(f_cat, bg, x):
        rep = interchange(f_cat, bg, x)
        return rep._replace(bijective=False, rhs=FinSet(rep.rhs.size + 1))

    monkeypatch.setattr(verify, "commute_check", lopsided)
    code, out, err = run_cli(capsys, "verify", "fixpoints", FIXTURES / "gset_chain.json",
                             "--format", "machine")
    payload = json.loads(out)
    assert (code, err, payload["ok"]) == (1, "", False)
    assert payload["colim of fixed points"] == 1
    assert payload["fixed points of colim"] == 2

    def misplaced(f_cat, bg, x):
        # a bijective report whose stage limits are not the fixed points
        rep = interchange(f_cat, bg, x)
        return rep._replace(limits=rep.limits[::-1])

    monkeypatch.setattr(verify, "commute_check", misplaced)
    code, out, _ = run_cli(capsys, "verify", "fixpoints", FIXTURES / "gset_chain.json",
                           "--format", "machine")
    assert code == 1
    assert json.loads(out)["interchange bijective"] is True


def test_verify_commute_prints_the_interchange_failure(monkeypatch, capsys):
    from abcat import verify
    interchange = verify.commute_check

    def lopsided(f_cat, d_cat, x):
        rep = interchange(f_cat, d_cat, x)
        return rep._replace(bijective=False, rhs=FinSet(rep.rhs.size + 1),
                            failure="comparison map is not a bijection")

    monkeypatch.setattr(verify, "commute_check", lopsided)
    code, out, err = run_cli(capsys, "verify", "commute", FIXTURES / "gset_chain.json",
                             "--format", "machine")
    assert (code, err) == (1, "")
    assert json.loads(out) == {"verify": "commute", "ok": False, "seed": 0,
                               "colim of limits": 1, "limit of colims": 2,
                               "failure": "comparison map is not a bijection"}


def test_verify_suite_needs_a_trial(capsys):
    for trials in ("0", "-3"):
        assert run_cli(capsys, "verify", "ab4", "--trials", trials) == (
            2, "", "error: trials must be at least 1\n")


def test_verify_randomized_suites(capsys):
    for prop in ("ab4", "ab5", "harting", "commute", "fixpoints"):
        code, out, _ = run_cli(capsys, "verify", prop, "--trials", "3", "--seed", "11")
        assert code == 0, prop


def test_verify_suite_failure_reports_first_three_trials(monkeypatch, capsys):
    from abcat import verify
    calls = []

    def failing(f_cat, d_cat, x):
        calls.append(len(calls))
        return verify.VerifyReport("interchange", False, {"call": calls[-1]})

    monkeypatch.setattr(verify, "verify_commute", failing)
    code, out, err = run_cli(capsys, "verify", "commute", "--trials", "4",
                             "--format", "machine")
    assert code == 1
    assert err == ""
    assert calls == [0, 1, 2, 3]
    assert json.loads(out) == {
        "verify": "commute", "ok": False, "seed": 0, "trials": 4,
        "failures": [[0, {"call": 0}], [1, {"call": 1}], [2, {"call": 2}]]}


def test_machine_output_stable_across_runs(capsys):
    code1, out1, _ = run_cli(capsys, "verify", "commute", "--trials", "3",
                             "--seed", "5", "--format", "machine")
    code2, out2, _ = run_cli(capsys, "verify", "commute", "--trials", "3",
                             "--seed", "5", "--format", "machine")
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["ok"] is True
    assert payload["seed"] == 5


def test_only_verify_takes_a_seed(capsys):
    with pytest.raises(SystemExit) as refused:
        main(["check", "connected", str(FIXTURES / "chain3.json"), "--seed", "1"])
    assert refused.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
    code, out, _ = run_cli(capsys, "verify", "commute", "--seed", "5", "--format", "machine")
    assert code == 0
    assert json.loads(out) == {"verify": "commute", "ok": True, "seed": 5, "trials": 10,
                               "failures": []}


def test_exit_code_two_on_bad_input(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert run_cli(capsys, "check", "filtered", missing)[0] == 2
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{ nope")
    code, _, err = run_cli(capsys, "check", "filtered", garbage)
    assert code == 2
    assert "error:" in err
    wrong_kind = tmp_path / "wrong.json"
    wrong_kind.write_text((FIXTURES / "family.json").read_text())
    assert run_cli(capsys, "check", "filtered", wrong_kind)[0] == 2


def test_conflicting_composites_exit_two(tmp_path, capsys):
    body = {"kind": "category", "objects": ["*"],
            "morphisms": [{"name": "1", "dom": "*", "cod": "*"},
                          {"name": "e", "dom": "*", "cod": "*"}],
            "identities": {"*": "1"},
            "composition": [["e", "e", "1"], ["e", "e", "e"]]}
    doc = tmp_path / "conflict.json"
    doc.write_text(json.dumps(body))
    for check in ("filtered", "sifted"):
        code, out, err = run_cli(capsys, "check", check, doc)
        assert (code, out) == (2, "")
        assert "conflicting composites for ['e', 'e'] at category.composition[1]" in err


def test_malformed_set_diagram_values_exit_two(tmp_path, capsys):
    # set labels are strings and map entries are integers, never coerced
    edits = [("sets", "0", [[1], [2]], "expected a list of names at setdiagram.sets.0"),
             ("sets", "0", [1, 2], "expected a list of names at setdiagram.sets.0"),
             ("maps", "f", [1.9, 1], "map must be a list of element indices"),
             ("maps", "f", ["1", 1], "map must be a list of element indices"),
             ("maps", "f", [True, 1], "map must be a list of element indices")]
    for section, key, value, message in edits:
        doc = json.loads((FIXTURES / "equalizer_sets.json").read_text())
        doc[section][key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        for command in ("limit", "colimit"):
            code, out, err = run_cli(capsys, command, bad)
            assert (code, out) == (2, "")
            assert err.startswith("error: ") and err.count("\n") == 1
            assert message in err


def test_verify_notlex_rejects_non_equivariant_map(tmp_path, capsys):
    doc = json.loads((FIXTURES / "notlex.json").read_text())
    doc["map"] = [[1], [0]]   # not equivariant for negation vs swap
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "verify", "notlex", bad)
    assert code == 2
    assert "equivariant" in err


def test_hx_budget_exhaustion_is_input_error(capsys):
    code, _, err = run_cli(capsys, "hx", "--set", "a,b,c", "--cap", "4",
                           "--budget", "100")
    assert code == 2
    assert "budget" in err


def test_verify_rejects_lawless_diagram(tmp_path, capsys):
    # structurally parseable but functor-law-breaking: exit 2, not 0 or 1
    doc = json.loads((FIXTURES / "gset_chain.json").read_text())
    for key in doc["maps"]:
        if len(doc["maps"][key]) >= 3:
            doc["maps"][key] = [doc["maps"][key][1], doc["maps"][key][2],
                                doc["maps"][key][0]] + doc["maps"][key][3:]
            break
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "verify", "commute", broken)
    assert code == 2
    assert "functor laws" in err
    doc = json.loads((FIXTURES / "gset_chain.json").read_text())
    doc["maps"]["m1"] = [1, 1, 2]   # g acts on (0,*) with g∘g != e
    broken.write_text(json.dumps(doc))
    assert run_cli(capsys, "verify", "commute", broken) == (
        2, "", "error: diagram breaks functor laws: tables break composite (1,1)\n")


def test_check_final_rejects_a_functor_that_breaks_a_composite(tmp_path, capsys):
    z3 = group_as_category([[(i + j) % 3 for j in range(3)] for i in range(3)])
    # g -> g and g^2 -> g, so F(g∘g) != F(g)∘F(g)
    path = tmp_path / "functor.json"
    path.write_text(serialize_document(Document("functor", FinFunctor(z3, z3, [0], [0, 1, 1]))))
    assert run_cli(capsys, "check", "final", path) == (
        2, "", "error: invalid functor: functor breaks composite (1,1); "
        "functor breaks composite (1,2); functor breaks composite (2,1)\n")


def test_module_entry_point_subprocess():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "abcat", "check", "filtered",
         str(FIXTURES / "chain3.json")],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "holds: True" in proc.stdout


def test_verify_ab5_needs_target_and_maps(capsys, tmp_path):
    def edit(doc):
        del doc["target"], doc["maps"]
    plain = _broken_ab5_chain(tmp_path, "plain.json", edit)
    assert run_cli(capsys, "verify", "ab5", plain) == (
        2, "", "error: ab5 expects an abdiagram document with target and maps\n")


def test_verify_ab5_needs_a_filtered_base(capsys, tmp_path):
    # kernels need not pass through colimits on these bases, so a
    # certificate there would not refute the theorem: the notlex map as an
    # abdiagram over B(Z/2), and a map of diagrams on the parallel pair
    from abcat.abdiag import AbDiagram, AbNaturalMap
    from abcat.abgrp import identity_hom
    from abcat.documents import load_document
    from abcat.fincat import parallel_pair_category
    z = cyclic(0)
    pair = AbDiagram(parallel_pair_category(), [z, z], lambda m: identity_hom(z))
    for name, value in (("notlex", load_document(FIXTURES / "notlex.json").value),
                        ("pair", AbNaturalMap(pair, pair, (identity_hom(z),) * 2))):
        path = tmp_path / f"{name}.json"
        path.write_text(serialize_document(Document("abdiagram", value)))
        assert run_cli(capsys, "verify", "ab5", path) == (
            2, "", "error: base is not filtered: no coequalizing arrow\n")
